"""Names the pipeline benchmark looks up in the package.

`perfbench/child.py` reads `signatures._lt_pair.cache_info()` on every
pass and, under --trace, replaces the functions below at the module
attributes where their callers look them up; `perfbench/run.py` imports
`kernels.select_kernel`.  The scan no longer calls `_lt_pair` or
`lt_signature`, so deleting or renaming one of these would break every
benchmark pass without failing any other test.  Retire a name here only
together with its use in `perfbench/`.
"""

import importlib

import pytest

LOOKUPS = {
    "signatures": ("_lt_pair", "signature_nullity_exact"),
    "casson_gordon": ("lt_signature",),
    "obstruction": (
        "build_sigma_tables",
        "enumerate_projective_isotropic",
        "select_kernel",
        "verify_primary_part",
        "genus_lower_bound",
        "ObstructionReport",
    ),
    "kernels": ("select_kernel",),
    "search": ("genus_lower_bound", "_run_candidate"),
    "cli": (
        "main",
        "genus_lower_bound",
        "search",
        "signature_function_samples",
        "fox_milnor_check",
        "cmd_verify",
        "cmd_search",
    ),
}


@pytest.mark.parametrize("module", sorted(LOOKUPS))
def test_benchmark_names_resolve(module):
    mod = importlib.import_module(f"cgobstruct.{module}")
    for name in LOOKUPS[module]:
        assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_benchmark_seams_keep_their_shape():
    from cgobstruct import kernels, obstruction, signatures

    info = signatures._lt_pair.cache_info()  # an lru_cache
    assert info.hits >= 0 and info.misses >= 0
    assert callable(obstruction.ObstructionReport.to_dict)
    assert callable(importlib.import_module("cgobstruct.cli").json.dumps)
    # the tracer unpacks (name, scan), wraps scan(xs, S, s1, p, thr) and reads
    # xs and p positionally and first from the result
    name, scan = kernels.select_kernel()
    assert name == "numpy" and scan is kernels.scan_classes
    assert obstruction.select_kernel is kernels.select_kernel


def test_select_kernel_takes_its_name_positionally():
    # the tracer's wrapper calls select(name) with the name it was given
    from cgobstruct import kernels

    assert kernels.select_kernel(None) == ("numpy", kernels.scan_classes)


@pytest.mark.parametrize("argv", [["verify", "--family", "83,103,17,11,13"], ["search", "--p-set", "83,103"]])
def test_main_dispatches_to_the_cmd_functions_it_finds_at_call_time(monkeypatch, argv):
    # the tracer swaps cli.cmd_verify and cli.cmd_search after import and then
    # calls main, so main must look them up when it builds its parser
    from cgobstruct import cli

    called = []
    for name in ("cmd_verify", "cmd_search"):
        monkeypatch.setattr(cli, name, lambda args, name=name: called.append(name) or 7)
    assert cli.main(argv) == 7
    assert called == [f"cmd_{argv[0]}"]
