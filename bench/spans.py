"""Span tracing around the package's public functions, installed from outside.

``Tracer.install`` replaces, in every ``fuzzyframes`` module namespace that
binds them,

* each public function of the five compute modules (layer = module name),
* the ``cli_io`` stage functions (layer ``cli_io``), and the command
  handlers held in ``cli_io.COMMANDS``,
* ``numpy.linalg`` ``eigh``/``eigvalsh``/``svd``/``pinv``/``solve`` (layer
  ``linalg``), through a copy of the ``numpy`` module whose ``linalg`` holds
  the wrappers, so the real ``numpy`` stays untouched.

Each wrapper records a span: layer, function, start, end, parent span and
file id.  A layer's self time is its span time minus its children's.  The
file source is not modified; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import types
from collections import Counter
from time import perf_counter_ns

import numpy as np

COMPUTE_MODULES = ("frame_core", "operator_algebra", "frame_transforms", "perturbation", "fuzzy_space")
LINALG = ("eigh", "eigvalsh", "svd", "pinv", "solve")

#: cli_io stage of each traced cli_io function, and whether the stage takes
#: the function's whole time (True) or only its self time (False)
CLI_STAGES = {
    "run_file": ("load", False),
    "parse_problem": ("parse", True),
    "problem_digest": ("digest", True),
    "run_command": ("command", False),
    "_check_claims": ("command", True),
    "canonical_json": ("serialize", True),
}
STAGES = ("load", "parse", "digest", "command", "serialize")


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(getattr(a, "matrix", a))
        h.update(str((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.digest()


class Tracer:
    def __init__(self):
        self.stack: list[list[int]] = []  # open spans: [child_ns, span_id]
        self.self_ns: Counter = Counter()  # layer -> self time
        self.stage_ns: Counter = Counter()  # cli_io stage -> time
        self.calls: Counter = Counter()  # "layer.function" -> calls
        self.repeats: Counter = Counter()  # "linalg" / "psd" -> repeated inputs
        self.seen: set = set()  # input digests of the current file
        self.file_id = -1
        self.next_id = 0
        self.spans: list[tuple] | None = None  # recorded only while counting
        self._restore: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def reset(self, record: bool) -> None:
        self.self_ns.clear()
        self.stage_ns.clear()
        self.calls.clear()
        self.repeats.clear()
        self.spans = [] if record else None

    def begin_file(self, file_id: int) -> None:
        self.file_id = file_id
        self.seen.clear()

    def _note_repeat(self, kind: str, *arrays) -> None:
        key = (kind, _digest(*arrays))
        if key in self.seen:
            self.repeats[kind] += 1
        else:
            self.seen.add(key)

    def wrap(self, layer, name, fn, stage=None, whole=False, repeat=None):
        tracer = self
        qual = f"{layer}.{name}"

        def traced(*args, **kwargs):
            if repeat is not None and tracer.spans is not None:
                tracer._note_repeat(repeat, *args[:2 if repeat == "psd" else 1])
            stack = tracer.stack
            parent = stack[-1] if stack else None
            tracer.next_id += 1
            frame = [0, tracer.next_id]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                tracer.self_ns[layer] += own
                tracer.calls[qual] += 1
                if stage is not None:
                    tracer.stage_ns[stage] += dur if whole else own
                if tracer.spans is not None:
                    tracer.spans.append((frame[1], parent[1] if parent else 0, tracer.file_id,
                                         layer, name, t0, t1))

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self, package: str = "fuzzyframes") -> None:
        mods = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        cli_io = sys.modules[f"{package}.cli_io"]
        replace: dict[int, object] = {}
        for short in COMPUTE_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    repeat = "psd" if name == "psd_order_check" else None
                    replace[id(fn)] = self.wrap(short, name, fn, repeat=repeat)
        for name, (stage, whole) in CLI_STAGES.items():
            fn = getattr(cli_io, name)
            replace[id(fn)] = self.wrap("cli_io", name, fn, stage, whole)

        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        for name in LINALG:
            fn = getattr(np.linalg, name)
            wrapped = self.wrap("linalg", name, fn, repeat="linalg")
            setattr(linalg, name, wrapped)
            replace[id(fn)] = wrapped
        numpy_copy = types.ModuleType("numpy")
        numpy_copy.__dict__.update(np.__dict__)
        numpy_copy.linalg = linalg
        replace[id(np)] = numpy_copy
        replace[id(np.linalg)] = linalg

        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replace[id(value)])
        for cmd, fn in list(cli_io.COMMANDS.items()):
            self._restore.append((cli_io.COMMANDS, cmd, fn))
            cli_io.COMMANDS[cmd] = self.wrap("cli_io", fn.__name__, fn, "command", True)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()
