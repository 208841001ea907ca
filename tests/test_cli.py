import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cgobstruct import build_family, kernels, parse_knot
from cgobstruct.cli import main

from oracles import eigen_signature, kernel_dimension, sturm_signature_nullity

FLAGSHIP = ["--family", "83,103,17,11,13"]
SLICE = ["--knot", "T(2,5;2,7) # -T(2,5;2,7)"]
GOLDEN = Path(__file__).resolve().parent / "data"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_verify_flagship_human(capsys):
    rc, out, _ = run(capsys, ["verify", *FLAGSHIP, "--threads", "2"])
    assert rc == 0
    assert "g₄^top = g₄ = 2" in out
    assert "p = 83: 7056 projective isotropic points, verified" in out
    assert "p = 103: 10816 projective isotropic points, verified" in out
    assert "factor pairing: complete" in out
    assert "signature function zero on all 132 arcs: True" in out


def test_verify_flagship_json(capsys):
    rc, out, _ = run(capsys, ["verify", *FLAGSHIP, "--format", "json", "--threads", "2"])
    assert rc == 0
    d = json.loads(out)
    assert d["schema_version"] == 1
    assert parse_knot(d["knot"]) == build_family(83, 103, 17, 11, 13)
    assert d["genus"]["lower_bound"] == 2
    assert d["genus"]["upper_bound"] == 2
    assert [p["p"] for p in d["primes"]] == [83, 103]
    assert all(p["verified"] for p in d["primes"])
    assert d["diagnostics"]["sigma_minus_one"] == 0
    assert d["diagnostics"]["signature_function_zero"] is True
    assert d["diagnostics"]["signature_arcs"] == 132
    assert d["diagnostics"]["fox_milnor_ok"] is True
    assert len(d["diagnostics"]["fox_milnor_pairs"]) == 7
    assert d["diagnostics"]["fox_milnor_unpaired"] == []


def test_verify_json_matches_shipped_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    rc, out, _ = run(capsys, ["verify", *FLAGSHIP, "--format", "json", "--threads", "2"])
    assert rc == 0
    schema = json.loads(
        resources.files("cgobstruct").joinpath("schemas/report.schema.json").read_text()
    )
    jsonschema.validate(json.loads(out), schema)


def test_verify_csv(capsys):
    rc, out, _ = run(capsys, ["verify", *FLAGSHIP, "--format", "csv", "--threads", "2"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "section,p,points,verified,margin,lower_bound,upper_bound"
    assert lines[1] == "prime,83,7056,1,7/1,,"
    assert lines[2] == "prime,103,10816,1,7/1,,"
    assert lines[3] == "genus,,,,,2,2"


def test_verify_threads_deterministic(capsys):
    argv = ["verify", *FLAGSHIP, "--format", "json"]
    rc1, out1, _ = run(capsys, [*argv, "--threads", "1"])
    rc2, out2, _ = run(capsys, [*argv, "--threads", "8"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_not_certified_exit_1(capsys):
    rc, out, _ = run(capsys, ["verify", *SLICE])
    assert rc == 1
    assert "NOT verified" in out
    assert "signature function zero on all 9 arcs: True" in out


def test_verify_reports_nonzero_signature_function(capsys):
    rc, out, _ = run(capsys, ["verify", "--knot", "T(2,3)", "--format", "json"])
    assert rc == 1
    d = json.loads(out)["diagnostics"]
    assert d["signature_function_zero"] is False
    assert d["signature_arcs"] == 2


def test_verify_genus_too_high_exit_1(capsys):
    rc, _, _ = run(capsys, ["verify", *FLAGSHIP, "--genus", "2", "--threads", "2"])
    assert rc == 1


@pytest.mark.parametrize("fmt, name", [("json", "verify_flagship.json"), ("human", "verify_flagship.txt"), ("csv", "verify_flagship.csv")])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_flagship_golden_bytes(capsys, fmt, name, threads):
    rc, out, err = run(capsys, ["verify", *FLAGSHIP, "--format", fmt, "--threads", threads])
    assert (rc, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("cells", [None, 64])
def test_verify_p300_golden_bytes(capsys, monkeypatch, cells):
    # 10,953 and 12,013 classes: two depth-1 row blocks, one depth-BLOCK
    # batch (805 and 739 classes) and several enumeration slabs per prime,
    # and 172 and 188 depth-1 blocks when the scratch is 64 cells
    if cells:
        monkeypatch.setattr(kernels, "CELLS", cells)
    rc, out, err = run(capsys, ["verify", "--family", "293,307,17,11,13", "--format", "json"])
    assert (rc, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "verify_p300.json").read_bytes()


def test_verify_p1000_golden_bytes(capsys):
    # 128,019 and 129,033 classes, 16 depth-1 row blocks per prime; the
    # golden bytes were taken while stage 1 still evaluated k = 1..4 for
    # every class
    rc, out, err = run(capsys, ["verify", "--family", "1009,1013,17,11,13", "--format", "json"])
    assert (rc, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "verify_p1000.json").read_bytes()


UNVERIFIED = "T(2,3;2,7) # -T(2,5;2,7) # T(2,7) # T(2,3;2,11) # -T(2,11) # -T(2,5;2,11)"
RANK5 = "T(2,3;2,83) # T(2,5;2,83) # -T(2,83) # -T(2,7;2,83) # T(2,11;2,83)"
FLAGSHIP_TERMS = (
    "T(2,17;2,83) # -T(2,11;2,83) # T(2,83) # -T(2,13;2,83) # "
    "T(2,11;2,103) # -T(2,103) # T(2,13;2,103) # -T(2,17;2,103)"
)


@pytest.mark.parametrize(
    "knot, name, want_rc, witnesses",
    [
        (UNVERIFIED, "verify_unverified.json", 1, None),
        (RANK5, "verify_rank5.json", 0, None),
        (FLAGSHIP_TERMS, "verify_flagship.json", 0, None),
        ("family(83,103,17,11,13)", "verify_flagship.json", 0, None),
        (UNVERIFIED, "verify_unverified_w1000.json", 1, "1000"),
        (RANK5, "verify_rank5_w40.json", 0, "40"),
    ],
)
def test_verify_witness_values_golden_bytes(capsys, knot, name, want_rc, witnesses):
    # witnesses outside the family: sigma(-1) = 4 with both primes unverified
    # (one witness at k = 4), and odd rank 5 with sigma(-1) = -82; the flagship
    # written as a knot string is recognised as the family, so its report
    # records the upper bound 2 exactly as --family does.  With --witnesses
    # 1000 the unverified knot lists all 14 witnessed points and rank 5 lists
    # 40; 9 and 20 of them are not class representatives
    extra = ["--witnesses", witnesses] if witnesses else []
    rc, out, err = run(capsys, ["verify", "--knot", knot, "--format", "json", *extra])
    assert (rc, err) == (want_rc, "")
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_search_pool_golden_bytes(tmp_path, capsys, threads):
    ckpt = tmp_path / "sweep.jsonl"
    argv = ["search", "--p-set", "103,83", "--q-set", "19,11,17,13", "--format", "json"]
    rc, out, err = run(capsys, [*argv, "--checkpoint", str(ckpt), "--threads", threads])
    assert (rc, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "search_pool.stdout.jsonl").read_bytes()
    assert ckpt.read_bytes() == (GOLDEN / "search_pool.checkpoint.jsonl").read_bytes()


@pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
def test_search_both_roles_golden_bytes(tmp_path, capsys, resumed):
    # each of the five p-primes is p1 of some candidates and p2 of others, so
    # its memoised classes and rows serve both roles; a resume from a
    # checkpoint cut mid-line gives the same bytes
    golden = (GOLDEN / "search_both_roles.checkpoint.jsonl").read_bytes()
    ckpt = tmp_path / "sweep.jsonl"
    if resumed:
        cut = len(golden) // 2
        assert b"\n" not in golden[cut - 1 : cut + 1]
        ckpt.write_bytes(golden[:cut])
    argv = ["search", "--p-set", "83,89,97,101,103", "--q-set", "11,13,17", "--format", "json"]
    rc, out, err = run(capsys, [*argv, "--checkpoint", str(ckpt)])
    assert (rc, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "search_both_roles.stdout.jsonl").read_bytes()
    assert ckpt.read_bytes() == golden


def test_verify_rejects_nonpositive_threads(capsys):
    for value in ("-2", "0"):
        rc, out, err = run(capsys, ["verify", *FLAGSHIP, "--threads", value, "--format", "csv"])
        assert (rc, out) == (2, "")
        assert err == f"error: threads must be >= 1, got {value}\n"


def test_verify_rejects_negative_genus_and_witnesses(capsys):
    rc, out, err = run(capsys, ["verify", *FLAGSHIP, "--genus", "-4"])
    assert (rc, out) == (2, "")
    assert err == "error: --genus must be >= 0, got -4\n"
    rc, out, err = run(capsys, ["verify", *FLAGSHIP, "--witnesses", "-2"])
    assert (rc, out) == (2, "")
    assert err == "error: max_witnesses must be >= 0, got -2\n"
    # zero stays valid: genus 0 is certified by any bound, and no witnesses are listed
    rc, out, _ = run(capsys, ["verify", *FLAGSHIP, "--genus", "0", "--witnesses", "0", "--format", "json"])
    assert rc == 0
    d = json.loads(out)
    assert d["genus"]["lower_bound"] == 2
    assert all(p["witnesses"] == [] for p in d["primes"])


def test_search_rejects_nonpositive_limit_and_threads(tmp_path, capsys):
    pools = ["search", "--p-set", "83,103", "--q-set", "11,13,17"]
    for flag, value in (("--limit", "0"), ("--limit", "-3"), ("--threads", "-2"), ("--threads", "0")):
        rc, out, err = run(capsys, [*pools, flag, value])
        assert (rc, out) == (2, ""), (flag, value)
        assert err == f"error: {flag[2:]} must be >= 1, got {value}\n"
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("p_set = 83,103\nq_set = 11,13,17\nlimit = 0\n")
    rc, out, err = run(capsys, ["search", "--config", str(cfgfile)])
    assert (rc, out) == (2, "")
    assert err == "error: limit must be >= 1, got 0\n"


def test_usage_errors_exit_2(capsys):
    rc, _, err = run(capsys, ["verify", "--family", "83,103,17,11,12"])
    assert rc == 2
    assert "error:" in err
    rc, _, err = run(capsys, ["verify", "--family", "83,103"])
    assert rc == 2
    rc, _, err = run(capsys, ["search", "--p-set", "83,103"])  # missing q pool
    assert rc == 2
    rc, _, err = run(capsys, ["search", "--p-min", "80"])  # no --p-max
    assert rc == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "83,103,17,11,13", "--knot", "T(2,3)"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_search_cli_csv(capsys):
    rc, out, _ = run(
        capsys, ["search", "--p-set", "83,103", "--q-set", "11,13,17", "--format", "csv"]
    )
    assert rc == 0
    assert out.splitlines() == ["p1,p2,q1,q2,q3,lower_bound", "83,103,17,11,13,2"]


def test_search_cli_json_and_human(capsys):
    rc, out, _ = run(capsys, ["search", "--p-set", "83,103", "--q-set", "11,13,17"])
    assert rc == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 1
    assert recs[0]["tuple"] == [83, 103, 17, 11, 13]
    assert recs[0]["report"]["conclusion"] == "g₄^top = g₄ = 2"
    rc, out, _ = run(
        capsys,
        ["search", "--p-set", "83,103", "--q-set", "11,13,17", "--format", "human"],
    )
    assert rc == 0
    assert "candidates kept: 1" in out
    assert "(83,103,17,11,13): lower bound 2" in out


def test_search_cli_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("p_set = 83,103\nq_set = 11,13,17\n")
    rc, out, _ = run(
        capsys, ["search", "--config", str(cfgfile), "--format", "csv", "--limit", "1"]
    )
    assert rc == 0
    assert "83,103,17,11,13,2" in out


def _search_config(tmp_path, capsys, text, *argv):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(text)
    rc, out, err = run(capsys, ["search", "--config", str(cfgfile), *argv])
    return rc, out, err.replace(str(cfgfile), "FILE")


@pytest.fixture
def search_configs(monkeypatch):
    """The SearchConfigs that cmd_search builds; the sweeps themselves are skipped."""
    from cgobstruct import cli

    configs = []
    monkeypatch.setattr(cli, "search", lambda cfg, checkpoint=None: configs.append(cfg) or [])
    return configs


# (key, value) pairs that exercise each search setting, valid and invalid
SETTING_CASES = [
    ("p_set", "83,103"),
    ("p_set", "83,9"),
    ("p_min", "80"),
    ("p_max", "110"),
    ("q_set", "11,13,17"),
    ("q_min", "10"),
    ("q_max", "x"),
    ("genus", "2"),
    ("genus", "0"),
    ("genus", "one"),
    ("require_algebraic", "false"),
    ("ranking", "lex"),
    ("ranking", "nope"),
    ("limit", "2"),
    ("limit", "0"),
    ("limit", "1.5"),
]


@pytest.mark.parametrize("key, value", SETTING_CASES, ids=lambda v: v)
def test_search_flag_and_config_key_agree(tmp_path, capsys, search_configs, key, value):
    # a flag and the same key in a file give the same config or the same error
    from cgobstruct.search import SETTINGS

    assert {k for k, _ in SETTING_CASES} == set(SETTINGS)
    # the pools the tested key does not set
    base = "".join(
        f"{k} = {v}\n" for k, v in (("p_set", "83,103"), ("q_set", "11,13,17")) if k[:2] != key[:2]
    )
    flag = [f"--{key.replace('_', '-')}", value]
    if key == "require_algebraic":
        flag = ["--no-require-algebraic"]
    outcomes = []
    for text, argv in ((f"{base}{key} = {value}\n", []), (base, flag)):
        outcomes.append((*_search_config(tmp_path, capsys, text, *argv), search_configs[:]))
        search_configs.clear()
    assert outcomes[0] == outcomes[1]
    rc, out, err, cfgs = outcomes[0]
    assert (rc, len(cfgs)) in ((0, 1), (2, 0)) and out == ""
    if rc == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_search_flag_pool_replaces_file_pool(tmp_path, capsys, search_configs):
    text = "p_min = 80\np_max = 90\nq_set = 11,13\ngenus = 2\n"
    assert _search_config(tmp_path, capsys, text, "--p-set", "103", "--genus", "3") == (0, "", "")
    assert search_configs[0][:4] == ((103,), (11, 13), True, 3)
    rc, _, err = _search_config(tmp_path, capsys, text, "--p-min", "100")
    assert (rc, err) == (2, "error: p_min and p_max must be given together\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # a reversed interval used to exit 0 after sweeping nothing
        (["--p-min", "110", "--p-max", "80", "--q-set", "11,13,17"], "p_min must be at most p_max, got 110 > 80"),
        (["--p-set", "83,103", "--q-min", "20", "--q-max", "10"], "q_min must be at most q_max, got 20 > 10"),
        (
            ["--p-min", "3", "--p-max", "7000", "--q-set", "11,13,17"],
            "the pools give up to 1210953 candidates, more than the 1000000 a search lists; "
            "use smaller pools",
        ),
    ],
)
def test_search_refuses_a_sweep_it_cannot_run_exit_2(capsys, search_configs, argv, message):
    assert run(capsys, ["search", *argv]) == (2, "", f"error: {message}\n")
    assert search_configs == []


def test_search_config_half_interval_exit_2(tmp_path, capsys):
    rc, out, err = _search_config(tmp_path, capsys, "p_min = 80\nq_set = 11,13,17\n")
    assert (rc, out, err) == (2, "", "error: p_min and p_max must be given together\n")


def test_search_config_previous_readme_example_exit_2(tmp_path, capsys):
    # the example as documented before comments were stripped and threads went away
    text = (
        "# pools: explicit sets or inclusive prime intervals\n"
        "p_set = 83,103        # or p_min = 80 / p_max = 110\n"
        "q_min = 10\n"
        "q_max = 18\n"
        "genus = 1\n"
        "ranking = product\n"
        "limit = 5\n"
        "threads = 4                # accepted, changes nothing\n"
        "require_algebraic = true   # keep only candidates with p > 4q\n"
    )
    rc, out, err = _search_config(tmp_path, capsys, text)
    assert (rc, out) == (2, "")
    assert err == "error: FILE:8: expected key = value for a known key, got 'threads = 4'\n"


def test_search_config_repeated_key_exit_2(tmp_path, capsys):
    # the second p_set used to replace the first without a word
    text = "p_set = 83,103\nq_set = 11,13,17  # companions\n\np_set = 83\n"
    rc, out, err = _search_config(tmp_path, capsys, text)
    assert (rc, out) == (2, "")
    assert err == "error: FILE:4: p_set is already set at FILE:1\n"


@pytest.mark.parametrize("pool", ["p", "q"])
@pytest.mark.parametrize("source", ["flags", "file"])
def test_search_interval_wider_than_the_cap_exit_2(tmp_path, capsys, search_configs, pool, source):
    # a 10^11-wide interval used to hang in primality tests before the first candidate
    other = "q" if pool == "p" else "p"
    wide = {f"{pool}_min": "3", f"{pool}_max": "100000000000", f"{other}_set": "11,13,17"}
    if source == "file":
        text = "".join(f"{k} = {v}\n" for k, v in wide.items())
        rc, out, err = _search_config(tmp_path, capsys, text)
    else:
        argv = [a for k, v in wide.items() for a in (f"--{k.replace('_', '-')}", v)]
        rc, out, err = run(capsys, ["search", *argv])
    assert (rc, out, search_configs) == (2, "", [])
    assert err == f"error: {pool}_max - {pool}_min must be at most 1000000, got 99999999997\n"


def test_search_config_unknown_key_exit_2(tmp_path, capsys):
    rc, out, err = _search_config(tmp_path, capsys, "p_sets = 83,103\nq_set = 11,13,17\n")
    assert (rc, out) == (2, "")
    assert err == "error: FILE:1: expected key = value for a known key, got 'p_sets = 83,103'\n"


def test_search_config_bad_boolean_exit_2(tmp_path, capsys):
    text = "p_set = 83,103\nq_set = 11,13,17\nrequire_algebraic = flase\n"
    rc, out, err = _search_config(tmp_path, capsys, text)
    assert (rc, out) == (2, "")
    assert err == "error: require_algebraic must be one of true/false/yes/no/1/0, got 'flase'\n"


def test_search_config_commented_boolean_is_read(tmp_path, capsys):
    # 61 <= 4*17, so require_algebraic = true leaves no candidate to evaluate
    ckpt = tmp_path / "sweep.jsonl"
    text = "p_set = 61,83\nq_set = 11,13,17\nrequire_algebraic = true   # keep only p > 4q\n"
    rc, out, err = _search_config(tmp_path, capsys, text, "--checkpoint", str(ckpt))
    assert (rc, out, err) == (0, "", "")
    assert ckpt.read_text() == ""


def test_search_cli_checkpoint_resume(tmp_path, capsys):
    ckpt = tmp_path / "sweep.jsonl"
    argv = [
        "search", "--p-set", "83,103", "--q-set", "11,13,17",
        "--checkpoint", str(ckpt), "--format", "json",
    ]
    rc1, out1, _ = run(capsys, argv)
    assert rc1 == 0
    assert len(ckpt.read_text().splitlines()) == 3
    rc2, out2, _ = run(capsys, argv)  # all candidates already done
    assert rc2 == 0
    assert out1 == out2
    assert len(ckpt.read_text().splitlines()) == 3


def test_search_cli_resume_with_other_genus_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "sweep.jsonl"
    argv = ["search", "--p-set", "83,103", "--q-set", "11,13,17", "--checkpoint", str(ckpt)]
    assert run(capsys, argv + ["--genus", "1"])[0] == 0
    rc, out, err = run(capsys, argv + ["--genus", "2"])
    assert rc == 2
    assert out == ""
    assert "different config" in err


def test_internal_invariant_failure_exit_3(capsys, monkeypatch):
    import cgobstruct.obstruction as obstruction

    classes = obstruction.enumerate_isotropic_classes

    def miscounted(part):  # orbit sizes that no longer add up to (p+1)^2
        xs, sizes = classes(part)
        return xs, sizes * 0 + 1

    monkeypatch.setattr(obstruction, "enumerate_isotropic_classes", miscounted)
    rc, out, err = run(capsys, ["verify", *FLAGSHIP])
    assert rc == 3
    assert out == ""
    assert err.startswith("internal error: isotropic point count mismatch at p=83: 925 != 7056")


def test_kernel_failure_exit_3(capsys, monkeypatch):
    # a ValueError from inside the scan is a bug, not bad input
    import cgobstruct.obstruction as obstruction

    def broken(xs, S, s1, p, thr):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(obstruction, "select_kernel", lambda name=None: ("numpy", broken))
    rc, out, err = run(capsys, ["verify", *FLAGSHIP])
    assert rc == 3
    assert out == ""
    assert err.startswith("internal error: scan kernel failed at p=83")
    assert "operands could not be broadcast together" in err


def test_unverified_knot_report_matches_row_gather_reference(capsys, monkeypatch):
    # 295 of this knot's 10,953 classes have no witness, so the scan's second
    # stage does real work; the report must equal the previous kernel's
    import cgobstruct.obstruction as obstruction
    from oracles import compose_multipliers, scan_chunk

    argv = ["verify", "--knot", "T(2,3;2,293) # -T(2,3;2,293) # T(2,5;2,293) # -T(2,5;2,293)"]
    rc, out, _ = run(capsys, [*argv, "--format", "json"])
    assert rc == 1
    assert json.loads(out)["primes"][0]["margin"] == "-3/1"

    def reference(xs, S, s1, p, thr):
        return scan_chunk(xs, compose_multipliers(S, p), s1, p, thr)

    monkeypatch.setattr(obstruction, "select_kernel", lambda: ("numpy", reference))
    assert run(capsys, [*argv, "--format", "json"]) == (1, out, "")


def test_nonzero_eta_cable_exit_3(capsys, monkeypatch):
    # the scan kernel takes eta = support - 1, exact only while eta_cable is 0
    import cgobstruct.casson_gordon as cg

    real = cg._cable_rows

    def nonzero(qc, p):  # a nullity at a = 5 (and its conjugate) mod 83
        sig, eta = (arr.copy() for arr in real(qc, p))
        if p == 83:
            eta[5] = eta[78] = 2
        return sig, eta

    monkeypatch.setattr(cg, "_cable_rows", nonzero)
    rc, out, err = run(capsys, ["verify", *FLAGSHIP])
    assert rc == 3
    assert out == ""
    assert err.startswith("internal error: nonzero eta_cable at p=83")


def test_unexpected_exception_exit_3(capsys, monkeypatch):
    # any exception that is not bad input is a bug: exit 3, never 1 ("did not certify")
    from cgobstruct import cli

    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "genus_lower_bound", broken)
    rc, out, err = run(capsys, ["verify", *FLAGSHIP])
    assert (rc, out) == (3, "")
    assert err == "internal error: KeyError: 'boom'\n"


NO_MPMATH = "import sys; sys.modules['mpmath'] = None; from cgobstruct.cli import main; sys.exit(main(sys.argv[1:]))"


def test_cli_runs_without_mpmath(capsys):
    # with mpmath unimportable, each command prints what it prints in process
    for argv, want_rc in (
        (["signature", "--q", "43", "--m", "211", "--format", "json"], 0),
        (["cg", *FLAGSHIP, "--character", "1,1,0,0,5,0,0,7"], 0),
        (["verify", *SLICE], 1),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", NO_MPMATH, *argv], capture_output=True, text=True, timeout=120
        )
        rc, out, err = run(capsys, argv)
        assert rc == want_rc, argv
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err), argv


SEARCH_THEN_PRINT = (
    "import sys; from cgobstruct.cli import main; rc = main(sys.argv[1:]); "
    "print('concurrent.futures' in sys.modules); sys.exit(rc)"
)


def test_cli_import_does_not_load_thread_pool():
    # the search sweep is serial: no command imports concurrent.futures
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cgobstruct.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    argv = ["search", "--p-set", "83,103", "--q-set", "11,13,17", "--format", "csv", "--threads", "2"]
    proc = subprocess.run(
        [sys.executable, "-c", SEARCH_THEN_PRINT, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["p1,p2,q1,q2,q3,lower_bound", "83,103,17,11,13,2", "False"]


def test_cli_import_does_not_load_dataclasses():
    # records are NamedTuples or __slots__ classes: no dataclass code generation at import
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cgobstruct.cli; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


PARSER_ARGVS = [
    [],
    ["--help"],
    ["nope"],
    ["-x", "verify"],
    *(
        argv
        for name in ("verify", "search", "signature", "cg")
        for argv in ([name, "--help"], [name, "-h"], [name], [name, "--bogus"], [name, "--format", "xml"])
    ),
    ["verify", "--family", "1,2,3,4,5", "--knot", "T(2,3)"],
    ["signature", "--q", "x", "--m", "3"],
    ["cg", "--family", "83,103,17,11,13"],
    ["verify", *FLAGSHIP, "--genus", "2"],
    ["search", "--p-set", "83,103", "--limit", "1"],
    ["signature", "--m", "5", "--q", "3"],
    ["cg", *SLICE, "--character", "1,2"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
def test_cli_parses_as_with_every_subcommands_arguments(capsys, monkeypatch, argv):
    # main hands its command exactly what the parser of all four subcommands
    # parses; help, usage errors and exit codes are that parser's too
    from cgobstruct import cli

    seen = []
    for name in ("cmd_verify", "cmd_search", "cmd_signature", "cmd_cg"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)

    def outcome(parse):
        try:
            result = parse(argv)
            result = seen.pop() if result == 0 else vars(result)
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    assert outcome(cli.main) == outcome(cli._build_parser().parse_args)
    assert seen == []


def test_signature_cli_csv(capsys):
    rc, out, _ = run(capsys, ["signature", "--q", "3", "--m", "3"])
    assert rc == 0
    assert out.splitlines() == ["a,sigma,eta", "0,0,0", "1,-2,0", "2,-2,0"]
    rc, out, _ = run(capsys, ["signature", "--q", "3", "--m", "6"])
    assert rc == 0
    assert out.splitlines()[2] == "1,-1,1"  # order-6 root hits the trefoil root


def test_signature_cli_other_formats(capsys):
    rc, out, _ = run(capsys, ["signature", "--q", "3", "--m", "3", "--format", "json"])
    assert rc == 0
    assert json.loads(out) == [
        {"a": 0, "sigma": 0, "eta": 0},
        {"a": 1, "sigma": -2, "eta": 0},
        {"a": 2, "sigma": -2, "eta": 0},
    ]
    rc, out, _ = run(capsys, ["signature", "--q", "3", "--m", "3", "--format", "human"])
    assert rc == 0
    assert "T(2,3) at order-3 roots:" in out


# w = -1 (m = 2), Alexander roots (m | 2q), q = 1, m = q and the CLI's largest cases
SIGNATURE_CASES = [
    (1, 7), (3, 2), (3, 6), (5, 10), (7, 7), (9, 6), (9, 18), (11, 2), (13, 50),
    (15, 5), (15, 30), (21, 14), (25, 60), (33, 22), (43, 2), (43, 86), (43, 211),
]


@pytest.mark.parametrize("q,m", SIGNATURE_CASES)
def test_signature_cli_output_matches_oracles(q, m, capsys):
    rows = [(0, 0, 0)]
    for a in range(1, m):
        row = (a, eigen_signature(q, a, m), kernel_dimension(q, a, m))
        if q <= 15 and m <= 50:
            assert row[1:] == sturm_signature_nullity(q, a, m), (q, a, m)
        rows.append(row)
    want = {
        "csv": "a,sigma,eta\n" + "".join(f"{a},{s},{e}\n" for a, s, e in rows),
        "json": json.dumps([{"a": a, "sigma": s, "eta": e} for a, s, e in rows]) + "\n",
        "human": f"T(2,{q}) at order-{m} roots:\n"
        + "".join(f"  a={a:>4}  sigma={s:>5}  eta={e}\n" for a, s, e in rows),
    }
    for fmt, text in want.items():
        assert run(capsys, ["signature", "--q", str(q), "--m", str(m), "--format", fmt]) == (0, text, "")


def test_signature_cli_rejects_bad_args(capsys):
    assert run(capsys, ["signature", "--q", "4", "--m", "3"])[0] == 2
    assert run(capsys, ["signature", "--q", "3", "--m", "0"])[0] == 2


def test_cg_cli(capsys):
    rc, out, _ = run(
        capsys, ["cg", "--knot", "T(2,3)", "--character", "1", "--format", "csv"]
    )
    assert rc == 0
    assert out.splitlines() == ["sigma,eta", "-5/3,0"]
    rc, out, _ = run(
        capsys,
        ["cg", *FLAGSHIP, "--character", "1,0,0,0,0,0,0,0", "--format", "json"],
    )
    assert rc == 0
    d = json.loads(out)
    assert d["sigma"] == "-6725/83"
    assert d["eta"] == 0
    rc, out, _ = run(
        capsys, ["cg", *FLAGSHIP, "--character", "1,1,0,0,0,0,0,0", "--format", "human"]
    )
    assert rc == 0
    assert "eta = 1" in out


def test_cg_cli_rejects_bad_character(capsys):
    assert run(capsys, ["cg", "--knot", "T(2,3)", "--character", "1,2"])[0] == 2
    assert run(capsys, ["cg", "--knot", "T(2,3)", "--character", "3"])[0] == 2


def test_cg_cli_rejects_prime_beyond_exact_test(capsys):
    # 341550071728321 is a strong pseudoprime to every Miller-Rabin witness used
    rc, out, err = run(capsys, ["cg", "--knot", "T(2,341550071728321)", "--character", "1"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: 341550071728321 is too large for the exact primality test")


@pytest.mark.skipif(shutil.which("cgobstruct") is None, reason="entry point not on PATH")
def test_installed_entry_point():
    proc = subprocess.run(
        ["cgobstruct", "signature", "--q", "3", "--m", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["a,sigma,eta", "0,0,0", "1,-2,0", "2,-2,0"]


def test_module_invocation_matches_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cgobstruct.cli", "signature", "--q", "3", "--m", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["a,sigma,eta", "0,0,0", "1,-2,0", "2,-2,0"]
