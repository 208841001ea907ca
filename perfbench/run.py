"""Pipeline benchmark for cgobstruct: cold verify, prime-pool search, p~300 scan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass is a fresh interpreter, so the
package's lru_caches start cold as in a real user run, and every pass is
checked against pinned certificate values; a pass that fails the check is
counted in `failed` and never aborts the run.  Rounds of passes at
--threads 1 and --threads 2 repeat until --seconds is used up: once every
kind of pass has run, a pass starts only if the last one of its kind took
little enough time to fit.

--trace 0 reports the end-to-end metrics from untraced passes.  The
speed of a shared host drifts by up to a third within minutes, so
`calibrate.py` (fixed work that never imports cgobstruct, in a mix like
the workload's own) runs before and after every timed item, and each
time is scaled toward a reference speed by the square root of the
calibration's reference wall ÷ the mean wall of those two calibrations
(see `scaled` in `run`).  Raw times and scales are kept in the results
file.

--trace 1 runs untraced and traced passes and reports the per-layer
metrics, taken from spans that `child.py` records around each module's
public functions.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller record (run metadata, every pass, the last trace's
spans) goes to perfbench/results/<workload>.trace<0|1>.json.

The seed only reorders presentation: which thread count runs first in
each round and the order of primes on the search command line (the
program sorts its pools).  The inputs themselves are fixed and exact,
because the pinned certificates are what the benchmark checks.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = SRC / "cgobstruct" / "schemas" / "report.schema.json"
CHILD = BENCH / "child.py"
CALIBRATE = BENCH / "calibrate.py"
PY = sys.executable

# settings a user may have exported that would change what is measured
STRIPPED_ENV = ("CG_OBSTRUCT_KERNEL", "CG_OBSTRUCT_PRECISION")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
PASS_TIMEOUT_S = 150

FLAGSHIP = "83,103,17,11,13"
SEARCH_P = (83, 103)
SEARCH_Q = (11, 13, 17, 19)
SEARCH_KEPT = [[83, 103, 11, 17, 19], [83, 103, 13, 17, 19], [83, 103, 17, 11, 13], [83, 103, 19, 11, 13]]
SEARCH_CANDIDATES = 12

# counters that must repeat exactly across traced passes of one workload
DETERMINISTIC = (
    "linking_form.points",
    "kernels.pairs_evaluated",
    "casson_gordon.table_rows",
    "signatures.lt_calls",
    "signatures.sturm_fallbacks",
    "search.candidates",
    "search.kept",
    "cli.report_bytes",
)

UNITS = {
    "setup.import_s": "s",
    "setup.numpy_import_s": "s",
    "casson_gordon.tables_s": "s",
    "casson_gordon.table_rows": "count",
    "signatures.lt_calls": "count",
    "signatures.lt_cache_hit_ratio": "ratio",
    "signatures.sturm_fallbacks": "count",
    "signatures.diag_s": "s",
    "knots.fox_milnor_s": "s",
    "linking_form.enum_s": "s",
    "linking_form.points": "count",
    "kernels.scan_busy_s": "s",
    "kernels.chunks": "count",
    "kernels.pairs_evaluated": "count",
    "kernels.useful_pair_ratio": "ratio",
    "kernels.bytes_computed": "B",
    "kernels.points_per_s": "1/s",
    "obstruction.verify_part_s": "s",
    "obstruction.self_s": "s",
    "obstruction.scan_parallel_eff": "ratio",
    "search.sweep_s": "s",
    "search.candidates": "count",
    "search.kept": "count",
    "search.errors": "count",
    "search.checkpoint_bytes": "B",
    "search.pool_eff": "ratio",
    "cli.serialize_s": "s",
    "cli.report_bytes": "B",
    "trace.overhead_frac": "ratio",
}
# measured on the traced --threads 2 pass; everything else on --threads 1
AT_T2 = ("obstruction.scan_parallel_eff", "search.pool_eff")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    rc: int
    stdout: bytes
    stderr: str


def run_child(argv: list[str], work: Path, tag: str) -> Child:
    """Run argv to completion; wall time and peak RSS of that process alone."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall, usage.ru_maxrss / 1024, proc.returncode,
        out_path.read_bytes(), err_path.read_text(errors="replace"),
    )


# ---------------------------------------------------------------------------
# Workloads and their correctness gates
# ---------------------------------------------------------------------------

@functools.cache
def report_validator() -> jsonschema.Draft202012Validator:
    return jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))


def schema_problems(report: dict) -> list[str]:
    return [f"schema: {e.message}" for e in report_validator().iter_errors(report)]


def report_problems(rep: dict, points: list[list[int]]) -> list[str]:
    """The pinned facts of every certificate measured here."""
    probs = schema_problems(rep)
    if probs:
        return probs
    if rep["genus"]["lower_bound"] != 2:
        probs.append(f"lower bound {rep['genus']['lower_bound']} != 2")
    got = [[pr["p"], pr["points"]] for pr in rep["primes"]]
    if got != points:
        probs.append(f"points {got} != {points}")
    if any(not pr["verified"] or pr["margin"] != "7/1" for pr in rep["primes"]):
        probs.append("a prime is unverified or its margin is not 7/1")
    return probs


@dataclass
class Calibration:
    """calibrate.py arguments and its wall time, by thread count, at the
    reference speed that reported times are scaled to (measured once on the
    shared 2-core x86_64 VM these figures come from; fixed from then on)."""

    args: tuple[int, int, int]  # python rounds, scan rounds, prime
    ref_s: dict[int, float]


# set-up samples are an interpreter start and imports: the Python-only mix
SETUP_CALIBRATION = Calibration((6, 0, 3), {1: 0.26})


class Workload:
    name: str
    certs: int  # genus certificates completed per pass
    cli: bool  # measured as a whole `cgobstruct` process, import included
    # a mix like the pass's own: import, Python arithmetic, scan chunks
    calibration: Calibration

    def cli_args(self, threads: int, work: Path, rng: random.Random) -> list[str]:
        raise NotImplementedError

    def check(self, stdout: bytes, work: Path) -> list[str]:
        raise NotImplementedError

    def checkpoint_bytes(self, work: Path) -> int:
        return 0


class VerifyFlagship(Workload):
    name, certs, cli = "verify_flagship", 1, True
    calibration = Calibration((12, 5, 103), {1: 0.43, 2: 0.48})

    def cli_args(self, threads, work, rng):
        return ["verify", "--family", FLAGSHIP, "--format", "json", "--threads", str(threads)]

    def check(self, stdout, work):
        rep = json.loads(stdout)
        probs = report_problems(rep, [[83, 7056], [103, 10816]])
        diag = rep.get("diagnostics", {})
        if not (diag.get("signature_function_zero") and diag.get("fox_milnor_ok")):
            probs.append(f"classical diagnostics not clean: {diag}")
        return probs


class SearchPool(Workload):
    name, certs, cli = "search_pool", SEARCH_CANDIDATES, True
    calibration = Calibration((3, 16, 103), {1: 0.47, 2: 0.54})

    def _checkpoint(self, work: Path) -> Path:
        return work / "search.ckpt.jsonl"

    def cli_args(self, threads, work, rng):
        ckpt = self._checkpoint(work)
        ckpt.unlink(missing_ok=True)
        p_set, q_set = list(SEARCH_P), list(SEARCH_Q)
        rng.shuffle(p_set)
        rng.shuffle(q_set)
        return [
            "search", "--p-set", ",".join(map(str, p_set)), "--q-set", ",".join(map(str, q_set)),
            "--format", "json", "--checkpoint", str(ckpt), "--threads", str(threads),
        ]

    def check(self, stdout, work):
        kept = [json.loads(line) for line in stdout.decode().splitlines()]
        probs = []
        if [rec["tuple"] for rec in kept] != SEARCH_KEPT:
            probs.append(f"kept tuples {[rec['tuple'] for rec in kept]} != {SEARCH_KEPT}")
        for rec in kept:
            probs += schema_problems(rec["report"])
            if rec["report"]["genus"]["lower_bound"] != 2:
                probs.append(f"{rec['tuple']}: lower bound is not 2")
        lines = self._checkpoint(work).read_text().splitlines()
        recs = [json.loads(line) for line in lines]
        n_kept = sum(1 for r in recs if r.get("kept"))
        n_err = sum(1 for r in recs if "error" in r)
        if (len(recs), n_kept, n_err) != (SEARCH_CANDIDATES, len(SEARCH_KEPT), 0):
            probs.append(f"checkpoint has {len(recs)} records, {n_kept} kept, {n_err} errors")
        return probs

    def checkpoint_bytes(self, work):
        return self._checkpoint(work).stat().st_size


class VerifyP300(Workload):
    name, certs, cli = "verify_p300", 1, False
    calibration = Calibration((0, 7, 293), {1: 0.47, 2: 0.45})

    def check(self, stdout, work):
        return report_problems(json.loads(stdout), [[293, 86436], [307, 94864]])


WORKLOADS = {w.name: w for w in (VerifyFlagship(), SearchPool(), VerifyP300())}


@dataclass
class Pass:
    threads: int
    traced: bool
    wall_s: float
    rss_mb: float
    stdout: bytes = field(repr=False)
    problems: list[str]
    checkpoint_bytes: int = 0
    trace: dict | None = field(default=None, repr=False)  # child.py output
    scale: float = 1.0  # from the calibrations around the pass, see run()


def run_pass(w: Workload, threads: int, traced: bool, work: Path, rng: random.Random, n: int) -> Pass:
    tag = f"pass{n}"
    side = work / f"{tag}.json"
    flags = ["--out", str(side)] + (["--trace"] if traced else [])
    if w.cli:
        args = w.cli_args(threads, work, rng)
        if traced:
            argv = [PY, str(CHILD), *flags, "cli", *args]
        else:
            argv = [PY, "-m", "cgobstruct.cli", *args]
    else:
        argv = [PY, str(CHILD), *flags, "p300", str(threads)]
    ch = run_child(argv, work, tag)
    trace = json.loads(side.read_text()) if side.exists() else None
    # a CLI pass is the whole process; the in-process pass starts after import
    wall = ch.wall_s if w.cli or trace is None else trace["pass_s"]
    problems: list[str] = []
    if ch.rc != 0:
        problems.append(f"exit code {ch.rc}: {ch.stderr.strip()[-500:]}")
    else:
        try:
            problems += w.check(ch.stdout, work)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
    ckpt = w.checkpoint_bytes(work) if not problems else 0
    return Pass(threads, traced, wall, ch.rss_mb, ch.stdout, problems, ckpt, trace)


# ---------------------------------------------------------------------------
# Set-up and metadata
# ---------------------------------------------------------------------------


def probe_metadata(work: Path) -> dict:
    code = (
        "import importlib.util, json, numpy, cgobstruct\n"
        "from cgobstruct.kernels import select_kernel\n"
        "print(json.dumps({'numpy': numpy.__version__, 'cgobstruct': cgobstruct.__version__,"
        " 'numba_present': importlib.util.find_spec('numba') is not None,"
        " 'kernel': select_kernel()[0]}))"
    )
    ch = run_child([PY, "-c", code], work, "probe")
    if ch.rc != 0:
        raise RuntimeError(f"cannot import cgobstruct from {SRC}: {ch.stderr.strip()[-500:]}")
    meta = json.loads(ch.stdout)
    meta.update(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        machine=platform.machine(),
        commit=git_commit(),
    )
    return meta


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def calibration(cal: Calibration, threads: int, work: Path) -> float:
    """Wall time of calibrate.py running the mix on `threads` threads."""
    ch = run_child([PY, str(CALIBRATE), *map(str, cal.args), str(threads)], work, "calibrate")
    if ch.rc != 0:
        raise RuntimeError(f"calibrate.py failed: {ch.stderr.strip()[-500:]}")
    return ch.wall_s


def import_wall(work: Path, n: int) -> float:
    """Wall time of a fresh interpreter running `import cgobstruct`."""
    ch = run_child([PY, "-c", "import cgobstruct"], work, f"setup{n}")
    if ch.rc != 0:
        raise RuntimeError(f"import cgobstruct failed: {ch.stderr.strip()[-500:]}")
    return ch.wall_s


def import_breakdown(work: Path, n: int) -> tuple[float, float]:
    """Cumulative import seconds of cgobstruct and of numpy, from -X importtime."""
    ch = run_child([PY, "-X", "importtime", "-c", "import cgobstruct"], work, f"importtime{n}")
    cumulative = {}
    for line in ch.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum) / 1e6)
    return cumulative["cgobstruct"], cumulative["numpy"]


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(p: Pass, w: Workload) -> dict[str, float]:
    spans = p.trace["spans"]
    counters = p.trace["counters"]
    children: dict[int, list] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append(s)

    def named(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    def busy(name):
        return sum(s[2] - s[1] for _, s in named(name))

    scans = [s for _, s in named("kernels.scan")]
    pairs = sum(s[4]["n"] * (s[4]["p"] - 1) for s in scans)
    scan_busy = busy("kernels.scan")
    verify_self = scan_capacity = 0.0
    for i, s in named("obstruction.verify_primary_part"):
        kids = children.get(i, [])
        verify_self += s[2] - s[1] - covered([(c[1], c[2]) for c in kids], s[1], s[2])
        part_scans = [c for c in kids if c[0] == "kernels.scan"]
        if part_scans:
            wall = max(c[2] for c in part_scans) - min(c[1] for c in part_scans)
            scan_capacity += s[4]["threads"] * wall
    sweep = busy("search.search")
    hits, misses = counters["signatures.lt_cache_hits"], counters["signatures.lt_cache_misses"]
    serialize = busy("cli.json_dumps") + sum(
        s[2] - s[1]
        for _, s in named("obstruction.to_dict")
        if s[3] is not None and spans[s[3]][0].startswith("cli.")
    )
    candidates = [s for _, s in named("search.run_candidate")]
    return {
        "casson_gordon.tables_s": busy("casson_gordon.build_sigma_tables"),
        "casson_gordon.table_rows": sum(s[4]["rows"] for _, s in named("casson_gordon.build_sigma_tables")),
        "signatures.lt_calls": counters["signatures.lt_calls"],
        "signatures.lt_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "signatures.sturm_fallbacks": counters["signatures.sturm_fallbacks"],
        "signatures.diag_s": busy("signatures.signature_function_samples"),
        "knots.fox_milnor_s": busy("knots.fox_milnor_check"),
        "linking_form.enum_s": busy("linking_form.enumerate"),
        "linking_form.points": sum(s[4]["points"] for _, s in named("linking_form.enumerate")),
        "kernels.scan_busy_s": scan_busy,
        "kernels.chunks": len(scans),
        "kernels.pairs_evaluated": pairs,
        "kernels.useful_pair_ratio": sum(s[4]["first_sum"] for s in scans) / pairs if pairs else 0.0,
        "kernels.bytes_computed": sum(s[4]["bytes"] for s in scans),
        "kernels.points_per_s": sum(s[4]["n"] for s in scans) / scan_busy if scan_busy else 0.0,
        "obstruction.verify_part_s": busy("obstruction.verify_primary_part"),
        "obstruction.self_s": verify_self,
        "obstruction.scan_parallel_eff": scan_busy / scan_capacity if scan_capacity else 0.0,
        "search.sweep_s": sweep,
        "search.candidates": len(candidates),
        "search.kept": sum(s[4]["kept"] for s in candidates),
        "search.errors": sum(s[4]["error"] for s in candidates),
        "search.checkpoint_bytes": p.checkpoint_bytes,
        "search.pool_eff": busy("search.run_candidate") / (p.threads * sweep) if sweep else 0.0,
        "cli.serialize_s": serialize,
        "cli.report_bytes": len(p.stdout) if w.cli else 0,
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run(w: Workload, seed: int, seconds: float, traced: bool, work: Path) -> tuple[dict, list[Pass], dict]:
    """Measure for `seconds`; return (metrics, passes, extra record)."""
    start = time.perf_counter()
    rng = random.Random(seed)
    meta = probe_metadata(work)  # also compiles the bytecode before anything is timed
    extra: dict = {"metadata": meta}
    last_cal: tuple[Calibration, int, float] | None = None

    def scaled(fn, cal: Calibration, threads: int):
        """Run fn between two calibrations on `threads` threads.

        Returns (fn(), sqrt(reference ÷ mean calibration wall)).  The
        host's speed changes within seconds, so only calibrations adjacent
        to the item track it, and a --threads 2 pass is matched by a
        two-thread calibration.  A calibration just run serves as the next
        item's `before` when it is of the same kind.  The square root
        shrinks the correction: on the 2-core VM these figures come from, the
        log of an item's time moved about half as much as the log of the
        calibration next to it (the rest of the calibration's variation is
        its own noise), and half-corrected medians drifted least between
        sets of runs taken minutes apart.
        """
        nonlocal last_cal
        if last_cal and last_cal[:2] == (cal, threads):
            before = last_cal[2]
        else:
            before = calibration(cal, threads, work)
        value = fn()
        after = calibration(cal, threads, work)
        last_cal = (cal, threads, after)
        return value, math.sqrt(2 * cal.ref_s[threads] / (before + after))

    if traced:
        breakdown = [import_breakdown(work, i) for i in range(IMPORTTIME_REPEATS)]
        rounds = [(1, False), (1, True), (2, True)]
    else:
        setup = [scaled(lambda: import_wall(work, i), SETUP_CALIBRATION, 1) for i in range(SETUP_REPEATS)]
        # two passes per thread count, so the calibration between them is shared
        rounds = [(1, False), (1, False), (2, False), (2, False)]

    def schedule():
        while True:
            yield from sorted(rounds, key=lambda r: r[0], reverse=rng.random() < 0.5)

    passes: list[Pass] = []
    cost: dict[tuple[int, bool], float] = {}  # last pass of each kind, calibration included
    for threads, tr in schedule():
        # until every kind has run, nothing stops; then a pass starts only if it should fit
        if cost.keys() >= set(rounds) and time.perf_counter() - start + cost[threads, tr] > seconds:
            break
        t0 = time.perf_counter()
        p, p.scale = scaled(lambda: run_pass(w, threads, tr, work, rng, len(passes)), w.calibration, threads)
        passes.append(p)
        cost[threads, tr] = time.perf_counter() - t0

    # every pass must print the very same certificate bytes
    for p in passes:
        if p.stdout != passes[0].stdout:
            p.problems.append("stdout differs from the first pass")

    def med(sel, key):
        return statistics.median(key(p) for p in passes if sel(p))

    if not traced:
        wall = med(lambda p: p.threads == 1, lambda p: p.wall_s * p.scale)
        metrics = {
            "wall_s": (wall, "s"),
            "wall_s_t2": (med(lambda p: p.threads == 2, lambda p: p.wall_s * p.scale), "s"),
            "certs_per_s": (w.certs / wall, "1/s"),
            "setup_s": (statistics.median(t * scale for t, scale in setup), "s"),
            "peak_rss_mb": (med(lambda p: p.threads == 1, lambda p: p.rss_mb), "MB"),
        }
        extra["setup_raw_s_and_scale"] = setup
        return metrics, passes, extra

    layers = [(p, layer_metrics(p, w)) for p in passes if p.traced and p.trace]
    if not layers:
        raise RuntimeError(f"no traced pass completed: {[p.problems for p in passes]}")
    for p, m in layers:
        for name in DETERMINISTIC:
            if m[name] != layers[0][1][name]:
                p.problems.append(f"{name} = {m[name]} differs from {layers[0][1][name]}")
    values: dict[str, float] = {
        "setup.import_s": statistics.median(b[0] for b in breakdown),
        "setup.numpy_import_s": statistics.median(b[1] for b in breakdown),
    }
    for name in layers[0][1]:
        values[name] = statistics.median(
            m[name] for p, m in layers if p.threads == (2 if name in AT_T2 else 1)
        )
    values["trace.overhead_frac"] = (
        med(lambda p: p.threads == 1 and p.traced, lambda p: p.wall_s * p.scale)
        / med(lambda p: p.threads == 1 and not p.traced, lambda p: p.wall_s * p.scale)
        - 1
    )
    extra["spans_last_traced_pass"] = layers[-1][0].trace["spans"]
    return {name: (values[name], UNITS[name]) for name in UNITS}, passes, extra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "cgobstruct" / "__init__.py").is_file():
        print(f"error: no cgobstruct sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    # turn SIGTERM into SystemExit so the pass in flight is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=BENCH / ".work"))
    try:
        metrics, passes, extra = run(w, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for p in passes if p.problems)
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": failed / len(passes),
        "metrics": as_json,
        "passes": [
            {"threads": p.threads, "traced": p.traced, "raw_wall_s": p.wall_s,
             "scale": p.scale, "peak_rss_mb": p.rss_mb, "problems": p.problems}
            for p in passes
        ],
        **extra,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}.trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    meta = extra["metadata"]
    print(f"{w.name}  seed {args.seed}  trace {args.trace}  {len(passes)} passes  "
          f"kernel {meta['kernel']}  numba {'present' if meta['numba_present'] else 'absent'}  "
          f"numpy {meta['numpy']}  nproc {meta['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<32} {failed / len(passes):>14.6g} ratio")
    for i, p in enumerate(passes):
        for problem in p.problems:
            print(f"  pass {i} (threads {p.threads}, traced {p.traced}): {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": as_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
