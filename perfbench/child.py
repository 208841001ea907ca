"""One measured pass, run in a fresh interpreter by `run.py`.

    python3 perfbench/child.py --out FILE [--trace] cli ARGV...
    python3 perfbench/child.py --out FILE [--trace] p300 THREADS

`cli` calls `cgobstruct.cli.main(ARGV)`; `p300` times
`genus_lower_bound(build_family(293,307,17,11,13), g_max=2)` after import
and prints the report JSON.  Either way the program's own output goes to
stdout untouched.  FILE receives {"pass_s", "rc", "spans", "counters"}.

With --trace, public names of each layer are replaced where their callers
look them up, and every call becomes a span [name, start, end, parent,
info] kept in memory and written to FILE at the end.  A span's parent is
the innermost open span of its thread; a span opened on a pool thread
with nothing open takes the innermost open span of the main thread, which
is where this program submits all pool work (search candidates and scan
chunks).  Nothing inside `src/` is edited; the wrappers return exactly
what the wrapped functions return, so certificate bytes cannot change.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import threading
import time
import types


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, int] = {}
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def span(self, name, fn, info=None):
        """Wrap fn so each call records a span; info(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._stacks.get(self._main) or [None]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans[idx] = [name, start, end, outer[-1], info(args, kwargs, result) if info else {}]
            return result

        return wrapper

    def count(self, name, fn):
        """Wrap fn so each call increments counter `name`."""
        self.counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def scan_bytes(n: int, p: int, r: int) -> int:
    """Bytes of the intermediates `scan_chunk_numpy` computes for one chunk.

    Derived from its array shapes, not measured: four int64 (n, p-1, r)
    arrays (k*x, idx, the sigma and eta gathers) and one bool mask of that
    shape, then ten int64 and two bool (n, p-1) arrays.
    """
    m = p - 1
    return 8 * n * m * (4 * r + 10) + n * m * (r + 2)


def install(tr: Tracer) -> None:
    """Wrap every traced layer boundary at the name its caller looks up."""
    # the package re-exports a function named `search`, so fetch the modules
    casson_gordon, cli, obstruction, search, signatures = (
        importlib.import_module(f"cgobstruct.{m}")
        for m in ("casson_gordon", "cli", "obstruction", "search", "signatures")
    )

    def traced_scan(scan):
        def info(args, kwargs, out):
            xs, p = args[0], args[3]
            n, r = xs.shape
            return {"n": n, "p": p, "first_sum": int(out[0].sum()), "bytes": scan_bytes(n, p, r)}

        return tr.span("kernels.scan", scan, info)

    select = obstruction.select_kernel

    def select_kernel(name=None):
        resolved, scan = select(name)
        return resolved, traced_scan(scan)

    obstruction.select_kernel = select_kernel

    enum = obstruction.enumerate_projective_isotropic
    obstruction.enumerate_projective_isotropic = tr.span(
        "linking_form.enumerate",
        lambda part: list(enum(part)),
        lambda args, kwargs, out: {"points": len(out)},
    )
    obstruction.build_sigma_tables = tr.span(
        "casson_gordon.build_sigma_tables",
        obstruction.build_sigma_tables,
        lambda args, kwargs, out: {"rows": len(out.piece_indices)},
    )
    obstruction.verify_primary_part = tr.span(
        "obstruction.verify_primary_part",
        obstruction.verify_primary_part,
        lambda args, kwargs, out: {"threads": kwargs.get("threads", 1)},
    )
    genus = tr.span("obstruction.genus_lower_bound", obstruction.genus_lower_bound)
    obstruction.genus_lower_bound = cli.genus_lower_bound = search.genus_lower_bound = genus
    obstruction.ObstructionReport.to_dict = tr.span(
        "obstruction.to_dict", obstruction.ObstructionReport.to_dict
    )

    casson_gordon.lt_signature = tr.count("signatures.lt_calls", casson_gordon.lt_signature)
    signatures.signature_nullity_exact = tr.count(
        "signatures.sturm_fallbacks", signatures.signature_nullity_exact
    )

    search._run_candidate = tr.span(
        "search.run_candidate",
        search._run_candidate,
        lambda args, kwargs, rec: {"kept": int(bool(rec.get("kept"))), "error": int("error" in rec)},
    )
    cli.search = tr.span("search.search", cli.search)
    cli.signature_function_samples = tr.span(
        "signatures.signature_function_samples", cli.signature_function_samples
    )
    cli.fox_milnor_check = tr.span("knots.fox_milnor_check", cli.fox_milnor_check)
    cli.cmd_verify = tr.span("cli.cmd_verify", cli.cmd_verify)
    cli.cmd_search = tr.span("cli.cmd_search", cli.cmd_search)
    cli.json = types.SimpleNamespace(dumps=tr.span("cli.json_dumps", cli.json.dumps))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("mode", choices=("cli", "p300"))
    ap.add_argument("args", nargs=argparse.REMAINDER)
    args = ap.parse_args()

    import cgobstruct
    from cgobstruct import cli, obstruction, signatures

    tr = Tracer()
    if args.trace:
        install(tr)
    cache0 = signatures._lt_pair.cache_info()
    start = time.perf_counter()
    if args.mode == "cli":
        rc = cli.main(args.args)
    else:
        K = cgobstruct.build_family(293, 307, 17, 11, 13)
        report = obstruction.genus_lower_bound(K, g_max=2, threads=int(args.args[0]))
        rc = 0
    pass_s = time.perf_counter() - start
    if args.mode == "p300":
        print(report.to_json())
    sys.stdout.flush()
    cache1 = signatures._lt_pair.cache_info()
    tr.counters["signatures.lt_cache_hits"] = cache1.hits - cache0.hits
    tr.counters["signatures.lt_cache_misses"] = cache1.misses - cache0.misses
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"pass_s": pass_s, "rc": rc, "spans": tr.spans, "counters": tr.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
