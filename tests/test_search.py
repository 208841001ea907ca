import importlib
import json
import time
from pathlib import Path

import pytest

from cgobstruct import (
    RANKINGS,
    SearchConfig,
    build_family,
    config_from_settings,
    enumerate_candidates,
    genus_lower_bound,
    parse_config_file,
    search,
)

FLAGSHIP_POOLS = dict(p_primes=(83, 103), q_primes=(11, 13, 17))


def test_candidate_enumeration_order():
    cfg = SearchConfig(**FLAGSHIP_POOLS)
    cands = list(enumerate_candidates(cfg))
    assert cands == [
        (83, 103, 11, 13, 17),
        (83, 103, 13, 11, 17),
        (83, 103, 17, 11, 13),
    ]


def test_candidate_algebraic_filter():
    cfg = SearchConfig(p_primes=(61, 83), q_primes=(11, 13, 17))
    assert list(enumerate_candidates(cfg)) == []  # 61 <= 4*17
    loose = SearchConfig(
        p_primes=(61, 83), q_primes=(11, 13, 17), require_algebraic=False
    )
    assert len(list(enumerate_candidates(loose))) == 3


def test_candidate_pools_must_be_disjoint_per_tuple():
    cfg = SearchConfig(p_primes=(13, 83), q_primes=(11, 13, 17), require_algebraic=False)
    assert list(enumerate_candidates(cfg)) == []


def test_ranking_keys():
    t = (83, 103, 17, 11, 13)
    assert RANKINGS["product"](t) == (83 * 103, t)
    assert RANKINGS["lex"](t) == t
    assert RANKINGS["maxprime"](t) == (103, t)


def test_flagship_sweep_keeps_exactly_one(tmp_path):
    ckpt = tmp_path / "sweep.jsonl"
    cfg = SearchConfig(**FLAGSHIP_POOLS)
    kept = search(cfg, checkpoint=str(ckpt))
    assert [r["tuple"] for r in kept] == [[83, 103, 17, 11, 13]]
    assert kept[0]["report"]["genus"]["lower_bound"] == 2
    assert kept[0]["report"]["conclusion"] == "g₄^top = g₄ = 2"
    # the other two slot assignments of the same q-set fail
    records = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert [r["tuple"] for r in records] == [
        [83, 103, 11, 13, 17],
        [83, 103, 13, 11, 17],
        [83, 103, 17, 11, 13],
    ]
    assert [r["kept"] for r in records] == [False, False, True]
    assert records[0]["lower_bound"] == 0
    assert records[1]["lower_bound"] == 0
    for r in records:
        assert set(r["margins"]) == {"83", "103"}
    assert records[2]["margins"] == {"83": "7/1", "103": "7/1"}


def test_second_example_sweep():
    cfg = SearchConfig(p_primes=(107, 131), q_primes=(17, 19, 23))
    kept = search(cfg)
    assert [r["tuple"] for r in kept] == [[107, 131, 23, 17, 19]]


def test_genus_two_sweep_is_empty():
    cfg = SearchConfig(genus=2, **FLAGSHIP_POOLS)
    assert search(cfg) == []


def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    cfg = SearchConfig(**FLAGSHIP_POOLS)
    full_ckpt = tmp_path / "full.jsonl"
    full = search(cfg, checkpoint=str(full_ckpt))
    lines = full_ckpt.read_text().splitlines()
    assert len(lines) == 3

    partial = tmp_path / "partial.jsonl"
    partial.write_text("\n".join(lines[:2]) + "\n")
    resumed = search(cfg, checkpoint=str(partial))
    assert json.dumps(resumed, sort_keys=True) == json.dumps(full, sort_keys=True)
    assert len(partial.read_text().splitlines()) == 3


def test_search_records_errors_and_continues(tmp_path, monkeypatch):
    import sys

    search_mod = sys.modules["cgobstruct.search"]

    def boom(K, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(search_mod, "genus_lower_bound", boom)
    ckpt = tmp_path / "err.jsonl"
    kept = search(SearchConfig(**FLAGSHIP_POOLS), checkpoint=str(ckpt))
    assert kept == []
    records = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert len(records) == 3
    assert all("synthetic failure" in r["error"] for r in records)


def test_search_limit():
    cfg = SearchConfig(limit=1, **FLAGSHIP_POOLS)
    assert len(search(cfg)) == 1


SWEEP_POOLS = dict(p_primes=(83, 103), q_primes=(11, 13, 17, 19))  # 12 candidates, 4 kept
SWEEP_ORDER = [
    [83, 103, 11, 13, 17],
    [83, 103, 11, 13, 19],
    [83, 103, 11, 17, 19],  # kept
    [83, 103, 13, 11, 17],
    [83, 103, 13, 11, 19],
    [83, 103, 13, 17, 19],  # kept
]
LINES_AT_LIMIT = {1: 3, 2: 6, 3: 7}  # checkpoint lines when the limit-th record is kept


@pytest.mark.parametrize("limit", [1, 2])
def test_search_limit_stops_evaluating(tmp_path, monkeypatch, limit):
    # the limit-th kept record is the 3rd or 6th candidate: the serial
    # walk evaluates and records nothing after it
    import sys

    search_mod = sys.modules["cgobstruct.search"]
    run_candidate, calls = search_mod._run_candidate, []

    def counted(cand, *args):
        calls.append(list(cand))
        return run_candidate(cand, *args)

    monkeypatch.setattr(search_mod, "_run_candidate", counted)
    ckpt = tmp_path / "limit.jsonl"
    kept = search(SearchConfig(limit=limit, **SWEEP_POOLS), checkpoint=str(ckpt))
    assert [r["tuple"] for r in kept] == [SWEEP_ORDER[2], SWEEP_ORDER[5]][:limit]
    records = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert [r["tuple"] for r in records] == SWEEP_ORDER[: LINES_AT_LIMIT[limit]]
    assert calls == SWEEP_ORDER[: LINES_AT_LIMIT[limit]]


def test_cached_sweep_records_match_uncached_runs(tmp_path):
    # each p-prime meets the four others, as p1 or as p2, so its memoised
    # classes and (q', p) rows are reused by candidates with other partners;
    # every record must equal a run from arrays built afresh
    from cgobstruct.casson_gordon import _cable_rows
    from cgobstruct.obstruction import _isotropic_classes

    ckpt = tmp_path / "sweep.jsonl"
    cfg = SearchConfig(p_primes=(83, 89, 97, 101, 103), q_primes=(11, 13, 17, 19))
    search(cfg, checkpoint=str(ckpt))
    records = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert [tuple(r["tuple"]) for r in records] == list(enumerate_candidates(cfg))
    assert len(records) == 120 and sum(r["kept"] for r in records) > 0
    for rec in records:
        _isotropic_classes.cache_clear()
        _cable_rows.cache_clear()
        report = genus_lower_bound(build_family(*rec["tuple"]), g_max=1)
        margins = {str(pr.p): f"{pr.margin.numerator}/{pr.margin.denominator}" for pr in report.primes}
        assert rec["margins"] == margins, rec["tuple"]
        assert rec["kept"] == (report.genus.lower_bound >= 2), rec["tuple"]
        if rec["kept"]:
            assert rec["report"] == json.loads(json.dumps(report.to_dict())), rec["tuple"]
        else:
            assert rec["lower_bound"] == report.genus.lower_bound, rec["tuple"]


@pytest.mark.parametrize("first", [1, 2])
def test_search_limit_resume_matches_fresh(tmp_path, first):
    # a sweep stopped at limit `first` resumes under a larger limit, then none
    ckpt = tmp_path / "sweep.jsonl"

    def run(limit, path):
        cfg = SearchConfig(limit=limit, **SWEEP_POOLS)
        return json.dumps(search(cfg, checkpoint=path), sort_keys=True)

    for limit in (first, first + 1):
        assert run(limit, str(ckpt)) == run(limit, None)
        assert len(ckpt.read_text().splitlines()) == LINES_AT_LIMIT[limit]
    assert run(None, str(ckpt)) == run(None, None)
    fresh = tmp_path / "fresh.jsonl"
    run(None, str(fresh))
    assert ckpt.read_bytes() == fresh.read_bytes()
    assert run(first, str(ckpt)) == run(first, None)  # a smaller limit reads the records back
    assert ckpt.read_bytes() == fresh.read_bytes()


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(p_primes=(9, 83), q_primes=(11,))
    with pytest.raises(ValueError):
        SearchConfig(p_primes=(83,), q_primes=(2,))
    with pytest.raises(ValueError):
        SearchConfig(p_primes=(83,), q_primes=(11,), ranking="nope")
    with pytest.raises(ValueError):
        SearchConfig(p_primes=(83,), q_primes=(11,), genus=0)
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"limit must be >= 1, got {bad}"):
            SearchConfig(p_primes=(83,), q_primes=(11,), limit=bad)
    cfg = SearchConfig(p_primes=(103, 83, 83), q_primes=(17, 11, 13))
    assert cfg.p_primes == (83, 103)
    assert cfg.q_primes == (11, 13, 17)


def test_from_bounds():
    cfg = config_from_settings({"p_min": "80", "p_max": "110", "q_min": "10", "q_max": "20"})
    assert cfg.p_primes == (83, 89, 97, 101, 103, 107, 109)
    assert cfg.q_primes == (11, 13, 17, 19)


def test_parse_config_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# flagship sweep\n"
        "p_set = 83,103\n"
        "q_min = 10  # inclusive\n"
        "q_max = 18\n"
        "\n"
        "genus = 1\n"
        "ranking = maxprime\n"
        "limit = 5\n"
        "require_algebraic = false\n"
    )
    parsed = parse_config_file(str(path))
    assert parsed == {
        "p_set": "83,103",
        "q_min": "10",
        "q_max": "18",
        "genus": "1",
        "ranking": "maxprime",
        "limit": "5",
        "require_algebraic": "false",
    }
    assert config_from_settings(parsed) == SearchConfig(
        p_primes=(83, 103),
        q_primes=(11, 13, 17),
        genus=1,
        ranking="maxprime",
        limit=5,
        require_algebraic=False,
    )


def test_parse_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("p_set 83,103\n")
    with pytest.raises(ValueError) as exc:
        parse_config_file(str(path))
    assert str(exc.value).endswith(
        "bad.cfg:1: expected key = value for a known key, got 'p_set 83,103'"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "q_set = 11\np_sets = 83  # typo\n",
            "bad.cfg:2: expected key = value for a known key, got 'p_sets = 83'",
        ),
        ("threads = 2\n", "bad.cfg:1: expected key = value for a known key, got 'threads = 2'"),
    ],
)
def test_parse_config_file_rejects_unknown_keys(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        parse_config_file(str(path))
    assert str(exc.value).endswith(message)


@pytest.mark.parametrize(
    "value, expected",
    [("true", True), ("Yes", True), ("1", True), ("false", False), ("no", False), ("0", False)],
)
def test_config_from_settings_reads_booleans(value, expected):
    cfg = config_from_settings({"p_set": "83", "q_set": "11", "require_algebraic": value})
    assert cfg.require_algebraic is expected


POOLS = {"p_set": "83", "q_set": "11"}


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"q_set": "11"}, "search needs a p pool: p_set, or p_min and p_max"),
        ({"p_set": "83", "q_min": "10"}, "q_min and q_max must be given together"),
        ({**POOLS, "p_max": "90"}, "p_set and p_min/p_max both given: use a set or an interval"),
        (
            {**POOLS, "p_sets": "83"},
            "unknown search setting 'p_sets' (have p_set, p_min, p_max, q_set, q_min, q_max, "
            "genus, require_algebraic, ranking, limit)",
        ),
        (
            {**POOLS, "require_algebraic": "flase"},
            "require_algebraic must be one of true/false/yes/no/1/0, got 'flase'",
        ),
        ({**POOLS, "p_set": "83,x"}, "p_set must be a comma list of integers, got '83,x'"),
        ({**POOLS, "limit": "1.5"}, "limit must be an integer, got '1.5'"),
        ({**POOLS, "genus": ""}, "genus must be an integer, got ''"),
        # a reversed interval used to give an empty pool and a sweep of nothing
        ({"p_min": "110", "p_max": "80", "q_set": "11"}, "p_min must be at most p_max, got 110 > 80"),
        ({"p_set": "83", "q_min": "20", "q_max": "10"}, "q_min must be at most q_max, got 20 > 10"),
    ],
)
def test_config_from_settings_errors_name_the_key(settings, message):
    with pytest.raises(ValueError) as exc:
        config_from_settings(settings)
    assert str(exc.value) == message


def test_config_interval_width_cap(monkeypatch):
    # an interval exactly MAX_WIDTH wide is read, one integer more is refused
    monkeypatch.setattr(importlib.import_module("cgobstruct.search"), "MAX_WIDTH", 20)
    ok = {"p_min": "80", "p_max": "100", "q_min": "10", "q_max": "30"}
    assert config_from_settings(ok)[:2] == ((83, 89, 97), (11, 13, 17, 19, 23, 29))
    for key in ("p_max", "q_max"):
        with pytest.raises(ValueError) as exc:
            config_from_settings({**ok, key: str(int(ok[key]) + 1)})
        assert str(exc.value) == f"{key} - {key[0]}_min must be at most 20, got 21"


def test_config_candidate_cap(monkeypatch):
    search_module = importlib.import_module("cgobstruct.search")
    assert search_module.MAX_CANDIDATES == 10**6
    # 899 odd primes up to 7000: C(899, 2) * C(3, 3) * 3 = 1,210,953 candidates
    with pytest.raises(ValueError) as exc:
        config_from_settings({"p_min": "3", "p_max": "7000", "q_set": "11,13,17"})
    assert str(exc.value) == (
        "the pools give up to 1210953 candidates, more than the 1000000 a search lists; "
        "use smaller pools"
    )
    # the count is of distinct pool primes, before any filter; the cap itself is accepted
    p, q = (83, 89, 97, 101, 103), (11, 13, 17)  # C(5, 2) * C(3, 3) * 3 = 30
    monkeypatch.setattr(search_module, "MAX_CANDIDATES", 30)
    assert len(list(enumerate_candidates(SearchConfig(p_primes=p + p, q_primes=q)))) == 30
    monkeypatch.setattr(search_module, "MAX_CANDIDATES", 29)
    with pytest.raises(ValueError, match="up to 30 candidates, more than the 29 "):
        SearchConfig(p_primes=p, q_primes=q)


def test_config_refuses_an_interval_before_testing_it():
    # a prime-count floor of 72,377 for 3..1,000,003 refuses before 500,001 tests
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        config_from_settings({"p_min": "3", "p_max": "1000003", "q_set": "11,13,17"})
    assert time.perf_counter() - t0 < 0.5
    assert str(exc.value) == (
        "the pools give at least 7857536628 candidates, more than the 1000000 a search lists; "
        "use smaller pools"
    )
    # the floor never refuses a runnable pool: 782 odd primes up to 6000 (floor 685)
    cfg = config_from_settings({"p_min": "3", "p_max": "6000", "q_set": "11,13,17"})
    assert len(cfg.p_primes) == 782  # C(782, 2) * 3 = 916,113 candidates


def test_q_pool_of_two_primes_yields_nothing_at_once():
    # no 3-subset of q-primes exists, so no p-pair is walked
    cfg = config_from_settings({"p_min": "3", "p_max": "200003", "q_set": "11,13"})
    t0 = time.perf_counter()
    assert list(enumerate_candidates(cfg)) == [] and search(cfg) == []
    assert time.perf_counter() - t0 < 1


def test_readme_config_example(tmp_path):
    # the documented format: the README's fenced example must parse as described
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("A config file (`--config`)", 1)[1].split("```\n")[1]
    path = tmp_path / "readme.cfg"
    path.write_text(example)
    assert config_from_settings(parse_config_file(str(path))) == SearchConfig(
        p_primes=(83, 103), q_primes=(11, 13, 17), genus=1, ranking="product", limit=5
    )


def test_checkpoint_resume_ignores_torn_final_line(tmp_path):
    cfg = SearchConfig(**FLAGSHIP_POOLS)
    full_ckpt = tmp_path / "full.jsonl"
    full = search(cfg, checkpoint=str(full_ckpt))
    lines = full_ckpt.read_text().splitlines()

    torn = tmp_path / "torn.jsonl"  # a crash in the middle of writing line 3
    torn.write_text(lines[0] + "\n" + lines[1] + "\n" + lines[2][: len(lines[2]) // 2])
    resumed = search(cfg, checkpoint=str(torn))
    assert json.dumps(resumed, sort_keys=True) == json.dumps(full, sort_keys=True)
    assert torn.read_text() == full_ckpt.read_text()


def test_checkpoint_corruption_before_the_last_line_fails(tmp_path):
    cfg = SearchConfig(**FLAGSHIP_POOLS)
    ckpt = tmp_path / "sweep.jsonl"
    search(cfg, checkpoint=str(ckpt))
    lines = ckpt.read_text().splitlines()
    ckpt.write_text(lines[0] + "\n" + lines[1][:20] + "\n" + lines[2] + "\n")
    with pytest.raises(ValueError, match="sweep.jsonl:2"):
        search(cfg, checkpoint=str(ckpt))


def test_checkpoint_records_carry_the_config(tmp_path):
    ckpt = tmp_path / "sweep.jsonl"
    kept = search(SearchConfig(**FLAGSHIP_POOLS), checkpoint=str(ckpt))
    records = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert len(records) == 3
    for rec in records:
        assert set(rec["config"]) == {"genus", "require_algebraic", "version"}
        assert rec["config"]["genus"] == 1 and rec["config"]["require_algebraic"] is True
    # the fingerprint stays in the file: returned records are unchanged
    assert "config" not in kept[0]
    assert {k: v for k, v in records[2].items() if k != "config"} == kept[0]


def test_checkpoint_resume_refuses_another_config(tmp_path):
    ckpt = tmp_path / "sweep.jsonl"
    search(SearchConfig(**FLAGSHIP_POOLS), checkpoint=str(ckpt))
    before = ckpt.read_text()
    # a genus-1 verdict must not be reused by a genus-2 sweep, which keeps nothing
    with pytest.raises(ValueError, match="different config"):
        search(SearchConfig(genus=2, **FLAGSHIP_POOLS), checkpoint=str(ckpt))
    with pytest.raises(ValueError, match="different config"):
        search(
            SearchConfig(require_algebraic=False, **FLAGSHIP_POOLS),
            checkpoint=str(ckpt),
        )
    assert ckpt.read_text() == before
    # a record without a fingerprint cannot be trusted either
    legacy = tmp_path / "legacy.jsonl"
    rec = json.loads(before.splitlines()[0])
    del rec["config"]
    legacy.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match="legacy.jsonl:1"):
        search(SearchConfig(**FLAGSHIP_POOLS), checkpoint=str(legacy))
