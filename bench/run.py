#!/usr/bin/env python3
"""Benchmark of the fuzzyframes CLI on seeded problem files.

Run from the repository root:

    python3 bench/run.py --workload mixed-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each run generates its workload's problem files from the seed under
``.bench_work/``, checks every report against the verdict planted by the
generator, and measures in one process, one file at a time (a closed loop
with one client).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard output
is a JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# BLAS threads are pinned before numpy is first imported, here and in
# every interpreter this script starts.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".bench_work"
MIN_ROUNDS = 5
#: spawns of each kind in a round: a spawn's paired time spreads more than
#: an in-process op's, so it needs more samples
SPAWNS_PER_ROUND = 2
LOOP_ROUND_S = 1.0  # per-file loop time in each round
SPAWN_TIMEOUT_S = 120
#: tolerance of the add-up check when the measured tracing overhead is
#: below run-to-run noise
ADD_UP_FLOOR = 0.01


@dataclass
class Ref:
    """Outcome of the first (checked) run of one file."""

    text: str | None
    code: object
    failure: str | None  # None when the report passed every check


class Tally:
    """Ops attempted and failed, failures by reason.

    An op is one file run through one path (first pass, per-file loop,
    ``batch`` at each parallelism, cold run).  Repeating an op for timing
    does not count it again; it has failed when any repetition failed.  So
    the counts depend on the seed only, not on how many repetitions fit
    into the run's time."""

    def __init__(self):
        self.ops: dict[tuple[int, str], str | None] = {}  # (file, path) -> failure

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(reason is not None for reason in self.ops.values())

    @property
    def reasons(self) -> Counter:
        return Counter(reason for reason in self.ops.values() if reason is not None)

    def record(self, i: int, path_name: str, failure: str | None) -> None:
        if self.ops.get((i, path_name)) is None:
            self.ops[(i, path_name)] = failure

    def judge(self, i: int, ref: Ref, text, code, path_name: str) -> None:
        if ref.failure is not None:
            self.record(i, path_name, ref.failure)
        elif text != ref.text or code != ref.code:
            self.record(i, path_name, f"bytes_differ_{path_name}")
        else:
            self.record(i, path_name, None)


# ---------------------------------------------------------------------------
# Correctness oracle


def _close(got, want: float) -> bool:
    try:
        x = float(got)
    except (TypeError, ValueError):
        return False
    if math.isinf(want) or math.isinf(x):
        return x == want
    return abs(x - want) <= 1e-7 * max(abs(x), abs(want)) + 1e-9


def check_report(case: workloads.Case, text: str, code) -> str | None:
    """Failure reason for one serialized report, or None when it is right."""
    if code not in (0, 1):
        return "exit_code"
    report = json.loads(text)
    if report.get("verdict") != case.verdict:
        return "verdict"
    body = report.get("body", {})
    for key, (a, b) in case.headline.items():
        got = body.get(key)
        if not isinstance(got, dict) or not (_close(got.get("A"), a) and _close(got.get("B"), b)):
            return "headline"
    return None


def file_op(cli_io, path: str):
    """The per-file unit of ``batch``: run_file, then canonical_json."""
    report, code = cli_io.run_file(path)
    return cli_io.canonical_json(report), code


def reference_pass(cli_io, files, cases) -> list[Ref]:
    refs = []
    for path, case in zip(files, cases):
        try:
            report, code = cli_io.run_file(path)
        except Exception:
            refs.append(Ref(None, "raises", "raises"))
            continue
        try:
            text = cli_io.canonical_json(report)
        except Exception:
            refs.append(Ref(None, "unserialisable", "unserialisable"))
            continue
        refs.append(Ref(text, code, check_report(case, text, code)))
    return refs


# ---------------------------------------------------------------------------
# Timed phases


def one_pass(cli_io, ctx, op=file_op, tracer=None) -> list[float]:
    """One op on each file in turn; returns the latency of each file."""
    refs, tally = ctx["refs"], ctx["tally"]
    times = []
    for i, path in enumerate(ctx["files"]):
        if tracer is not None:
            tracer.begin_file(i)
        t0 = perf_counter()
        try:
            text, code = op(cli_io, path)
        except Exception as exc:
            text, code = None, type(exc).__name__
        times.append(perf_counter() - t0)
        tally.judge(i, refs[i], text, code, "loop")
    return times


def loop_round(cli_io, ctx, record, op=file_op, tracer=None) -> None:
    """Whole passes over the files for at least LOOP_ROUND_S; each pass's
    latencies go to record()."""
    start = perf_counter()
    while True:
        record(one_pass(cli_io, ctx, op, tracer))
        if perf_counter() - start >= LOOP_ROUND_S:
            return


def appender(latencies: list[list[float]]):
    """record() for loop_round that keeps file i's latencies in latencies[i]."""
    def record(times):
        for samples, t in zip(latencies, times):
            samples.append(t)
    return record


def batch_once(cli_io, ctx, par: int) -> float:
    """One ``batch`` over the workload directory; returns its wall time."""
    refs, tally, out = ctx["refs"], ctx["tally"], ctx["work"] / "batch-out.json"
    argv = ["batch", str(ctx["files_dir"]), "--out", str(out)]
    if par == 2:
        argv += ["--parallel", "2"]
    out.unlink(missing_ok=True)
    t0 = perf_counter()
    try:
        cli_io.main(argv)
        lost = False
    except Exception:  # a report that does not serialize loses the whole batch
        lost = True
    elapsed = perf_counter() - t0
    if lost or not out.exists():
        for i in range(len(refs)):
            tally.record(i, f"batch_p{par}", "batch_output_lost")
        return elapsed
    for i, (ref, r) in enumerate(zip(refs, json.loads(out.read_text())["reports"])):
        text = json.dumps(r, sort_keys=True, indent=2, ensure_ascii=True)
        tally.judge(i, ref, text, r.get("exit_code"), f"batch_p{par}")
    return elapsed


def spawn_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, env, check=True):
    """Run a fresh interpreter to completion; returns (wall seconds, process)."""
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=SPAWN_TIMEOUT_S)
    elapsed = perf_counter() - t0
    if check and proc.returncode != 0:
        raise RuntimeError(f"{argv} failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed, proc


def rounds(seconds: float, body) -> int:
    """Repeat one round of every timed phase until the run's time is spent.

    Interleaving spreads each metric's samples over the whole run, so that
    a slow spell of the machine touches every metric alike."""
    end = perf_counter() + seconds
    n = 0
    while n < MIN_ROUNDS or perf_counter() < end:
        body(n)
        n += 1
    return n


# ---------------------------------------------------------------------------
# Environment record


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, src: Path, seed: int, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas_name = "unknown"
    src_hash = hashlib.sha256()
    for f in sorted((src / "fuzzyframes").rglob("*")):
        if f.is_file() and f.suffix in (".py", ".json"):
            src_hash.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": nproc,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(root),
        "src_sha256": src_hash.hexdigest(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Workload set-up


def input_set(workload: str, seed: int, src: Path):
    """The workload's cases with their file names and texts, and the hash of the set."""
    built = workloads.build(workload, seed, src / "fuzzyframes" / "corpus")
    named = [(f"{i:03d}-{case.name}.json", case, text) for i, (case, text) in enumerate(built)]
    digest = hashlib.sha256()
    for name, _, text in named:
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    return named, digest.hexdigest()


def write_inputs(workload: str, seed: int, src: Path, files_dir: Path):
    named, digest = input_set(workload, seed, src)
    files = []
    for name, _, text in named:
        (files_dir / name).write_text(text)
        files.append(str(files_dir / name))
    return files, [case for _, case, _ in named], digest


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def per_file_best(latencies: list[list[float]]) -> list[float]:
    """Each file's fastest op of the run: traced and untraced passes compared
    at the machine's fastest, not at whatever state each happened to meet."""
    return [min(v) for v in latencies]


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end(cli_io, ctx, seconds: float) -> tuple[dict, dict]:
    tally, env, ref0 = ctx["tally"], ctx["env"], ctx["refs"][0]
    setup_argv = [sys.executable, "-c", "import fuzzyframes.cli_io"]
    cold_argv = [sys.executable, "-m", "fuzzyframes.cli_io", ctx["cases"][0].command, ctx["files"][0]]

    def cold():
        elapsed, proc = spawn(cold_argv, env, check=False)
        text = proc.stdout.decode()
        tally.judge(0, ref0, text[:-1] if text.endswith("\n") else None, proc.returncode, "cold")
        return elapsed

    # One untimed spawn of each first writes the bytecode cache, as any
    # earlier CLI call would have.
    spawn(setup_argv, env)
    cold()
    n_files = len(ctx["files"])
    # Every sample is kept twice: as measured, and over the mean reference
    # op of the blocks right before and after it (speed.py).
    lat: list[list[float]] = [[] for _ in range(n_files)]
    lat_rel: list[list[float]] = [[] for _ in range(n_files)]
    s: dict = {"setup": [], "cold": [], "batch": []}
    rel: dict = {"setup": [], "cold": [], "batch": []}
    ref = speed.Reference()
    cpu = pin_to_one_cpu()

    def timed(name, seconds_taken):
        s[name].append(seconds_taken)
        rel[name].append(seconds_taken / ref.close())

    def record_pass(times):
        unit = ref.close()
        for i, t in enumerate(times):
            lat[i].append(t)
            lat_rel[i].append(t / unit)

    # batch --parallel 2 is timed in the traced run only: two threads on
    # the two vCPUs of a shared host time the host's scheduler more than
    # the program (see README, Noise).
    def body(n):
        for _ in range(SPAWNS_PER_ROUND):
            timed("setup", spawn(setup_argv, env)[0])
            timed("cold", cold())
        loop_round(cli_io, ctx, record_pass)
        timed("batch", batch_once(cli_io, ctx, 1))

    ref.block()
    rounds(seconds, body)
    ops = sum(map(len, lat))

    def figures(med, per_file) -> dict:
        return {
            "setup_s": med("setup"),
            "cold_file_s": med("cold"),
            "files_per_s": n_files / sum(per_file),
            "file_ms_p50": statistics.median(per_file) * 1e3,
            "file_ms_p90": p90(per_file) * 1e3,
            "batch_files_per_s": n_files / med("batch"),
        }

    raw = figures(lambda k: statistics.median(s[k]), [statistics.median(v) for v in lat])
    scaled = figures(lambda k: speed.at_reference(rel[k]), [speed.at_reference(v) for v in lat_rel])
    counts = {"setup_s": len(s["setup"]), "cold_file_s": len(s["cold"]), "batch_files_per_s": len(s["batch"])}
    units = {"setup_s": "s", "cold_file_s": "s", "files_per_s": "1/s", "file_ms_p50": "ms",
             "file_ms_p90": "ms", "batch_files_per_s": "1/s"}
    metrics = {k: metric(v, units[k], counts.get(k, ops)) for k, v in scaled.items()}
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    return metrics, {"unscaled_metrics": raw, "reference": {**ref.summary(), "pinned_cpu": cpu}}


def pin_to_one_cpu():
    """Keep this process and the interpreters it starts on one CPU.

    The vCPUs of a shared host slow down independently, so a spawn is
    paired with the reference blocks around it only when both run on the
    same one.  The end-to-end run is single-threaded, so this takes
    nothing from it.  Returns the CPU, or None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _count_snapshot(tracer, n_files: int) -> dict:
    calls = tracer.calls
    linalg = {name: calls[f"linalg.{name}"] for name in spans.LINALG}
    total = sum(linalg.values())
    psd = calls["operator_algebra.psd_order_check"]
    return {
        "linalg.calls": total / n_files,
        **{f"linalg.{name}_calls": linalg[name] / n_files for name in spans.LINALG},
        "linalg.repeat_frac": tracer.repeats["linalg"] / total if total else 0.0,
        "operator_algebra.psd_checks": psd / n_files,
        "operator_algebra.psd_repeat_frac": tracer.repeats["psd"] / psd if psd else 0.0,
        "frame_core.verify_bounds_calls": calls["frame_core.verify_bounds"] / n_files,
    }


def _per_command_decompositions(recorded, cases) -> dict:
    per_file = Counter(s[2] for s in recorded if s[3] == "linalg")
    out: dict = {}
    for i, case in enumerate(cases):
        out.setdefault(f"{case.command}@n{case.dimension}", []).append(per_file[i])
    return {k: sorted(set(v)) for k, v in sorted(out.items())}


def traced(cli_io, ctx, seconds: float) -> tuple[dict, dict]:
    files, refs, tally, cases = ctx["files"], ctx["refs"], ctx["tally"], ctx["cases"]
    tracer = spans.Tracer()
    traced_op = tracer.wrap("op", "file", file_op)

    tracer.install()
    try:
        snapshots, recorded = [], None
        for _ in range(2):  # count twice: the counts must repeat exactly
            tracer.reset(record=True)
            one_pass(cli_io, ctx, traced_op, tracer)
            snapshots.append(_count_snapshot(tracer, len(files)))
            recorded = recorded or tracer.spans
    finally:
        tracer.uninstall()
    tracer.reset(record=False)

    numpy_argv = [sys.executable, "-c", "import numpy"]
    spawn(numpy_argv, ctx["env"])
    plain: list[list[float]] = [[] for _ in files]
    lat: list[list[float]] = [[] for _ in files]
    s: dict = {"numpy": [], 1: [], 2: []}

    def body(n):
        s["numpy"].append(spawn(numpy_argv, ctx["env"])[0])
        loop_round(cli_io, ctx, appender(plain))
        tracer.install()
        try:
            loop_round(cli_io, ctx, appender(lat), traced_op, tracer)
        finally:
            tracer.uninstall()
        for par in ((1, 2) if n % 2 == 0 else (2, 1)):
            s[par].append(batch_once(cli_io, ctx, par))

    rounds(seconds, body)

    m: dict = {}
    ops = sum(map(len, lat))
    total_ns = sum(tracer.self_ns.values())
    stage_ms = {k: tracer.stage_ns[k] / ops / 1e6 for k in spans.STAGES}
    for stage in spans.STAGES:
        m[f"cli_io.{stage}_ms"] = metric(stage_ms[stage], "ms", ops)
    input_ms = stage_ms["load"] + stage_ms["parse"] + stage_ms["digest"]
    m["cli_io.input_share"] = metric(input_ms / (total_ns / ops / 1e6), "ratio", ops)
    for layer in ("cli_io", *spans.COMPUTE_MODULES, "linalg"):
        m[f"{layer}.self_ms"] = metric(tracer.self_ns[layer] / ops / 1e6, "ms", ops)
    for name, value in snapshots[0].items():
        m[name] = metric(value, "ratio" if name.endswith("_frac") else "count/file", len(files))
    overhead = sum(per_file_best(lat)) / sum(per_file_best(plain)) - 1.0
    m["trace.overhead_frac"] = metric(overhead, "ratio", ops)
    unattributed = tracer.self_ns["op"] / total_ns
    m["trace.unattributed_frac"] = metric(unattributed, "ratio", ops)
    m["batch.files_per_s"] = metric(len(files) / statistics.median(s[1]), "1/s", len(s[1]))
    m["batch.par2_files_per_s"] = metric(len(files) / statistics.median(s[2]), "1/s", len(s[2]))
    m["batch.par2_speedup"] = metric(statistics.median(s[1]) / statistics.median(s[2]), "ratio", len(s[1]))
    m["setup.numpy_import_s"] = metric(min(s["numpy"]), "s", len(s["numpy"]))

    mismatched = sorted(k for k in snapshots[0] if snapshots[0][k] != snapshots[1][k])
    extra = {
        "counts_repeat": not mismatched,
        "counts_not_repeating": mismatched,
        "layers_add_up": unattributed <= max(overhead, ADD_UP_FLOOR),
        "decompositions_per_file_by_command": _per_command_decompositions(recorded, cases),
    }
    with open(ctx["work"] / "spans.jsonl", "w") as fh:
        fh.write("# span_id parent_id file_id layer function start_ns end_ns\n")
        for span in recorded:
            fh.write(json.dumps(span) + "\n")
    return m, extra


# ---------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "fuzzyframes" / "cli_io.py").is_file():
        print(f"error: {src / 'fuzzyframes' / 'cli_io.py'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import fuzzyframes.cli_io as cli_io

    if Path(cli_io.__file__).resolve().parent != (src / "fuzzyframes").resolve():
        print(f"error: imported {cli_io.__file__}, not the checkout's package", file=sys.stderr)
        return 2

    work = Path(WORK_DIR) / workload
    shutil.rmtree(work, ignore_errors=True)
    files_dir = work / "files"
    files_dir.mkdir(parents=True)
    t0 = perf_counter()
    files, cases, digest = write_inputs(workload, seed, src, files_dir)
    generate_s = perf_counter() - t0
    regenerated = input_set(workload, seed, src)[1]

    tally = Tally()
    refs = reference_pass(cli_io, files, cases)
    for i, ref in enumerate(refs):
        tally.judge(i, ref, ref.text, ref.code, "first")
    # Everything built so far lives for the whole run; keep it out of the
    # collector's way so that timings see the program's own garbage only.
    gc.collect()
    gc.freeze()
    ctx = {"files": files, "cases": cases, "refs": refs, "tally": tally, "work": work,
           "files_dir": files_dir, "env": spawn_env(src)}

    nproc = len(os.sched_getaffinity(0))
    threads = 2 if trace else 1  # batch --parallel 2 runs in the traced run only
    if trace:
        metrics, extra = traced(cli_io, ctx, seconds)
    else:
        metrics, extra = end_to_end(cli_io, ctx, seconds)

    bytes_ok = not any(k.startswith("bytes_differ") for k in tally.reasons)
    correct = bytes_ok and digest == regenerated and extra.get("counts_repeat", True)
    failed_files = sorted({f"{Path(p).name}: {r.failure}" for p, r in zip(files, refs) if r.failure})
    details = {
        "workload": workload,
        "trace": trace,
        "environment": environment(root, src, seed, nproc),
        "input_set": {"files": len(files), "sha256": digest, "same_on_regeneration": digest == regenerated,
                      "generate_s": generate_s},
        "verdicts_planted": dict(Counter(c.verdict for c in cases)),
        "ops": {"attempted": tally.attempted, "failed": tally.failed, "by_reason": dict(tally.reasons)},
        "files_failing_checks": failed_files,
        "byte_identical_across_paths": bytes_ok,
        "threads": {"max_used": threads, "nproc": nproc, "within_nproc": threads <= nproc},
        **extra,
    }

    print(f"# fuzzyframes benchmark  workload={workload}  seed={seed}  trace={trace}")
    for name, entry in metrics.items():
        print(f"{name:38s} {entry['value']:>14.6g} {entry['unit']:<10s} n={entry['samples']}")
    print(f"ops attempted {tally.attempted}  failed {tally.failed}  {dict(tally.reasons)}")
    print(json.dumps({"details": details}))
    result = {
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    script = Path(__file__).resolve()
    code = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-2]))
            print(lines[-1] if lines else "", flush=True)
            code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
