"""Sweep prime tuples (p1,p2,q1,q2,q3) and rank the verified family knots.

Candidates are built from a pool of p-primes and a pool of q-primes:
unordered pairs p1 < p2, 3-element q-subsets disjoint from the pair, and,
because the q1 slot pairs across the two prime groups differently than q2
and q3 do, all three distinct slot assignments of each q-set (q2 and q3
appear symmetrically, so only their sorted order is tried).  The default
ranking orders candidates by N = p1*p2, then lexicographically; the
ranking key is configurable and recorded in the results.

Each candidate runs the full genus pipeline; candidates certifying a
lower bound of at least genus+1 are retained.  The sweep is one serial
walk in ranking order.  As in a verify, a prime's scan is memoised on
its part (pieces and their indices), sigma_K(-1), genus and witness
count (`obstruction._scan_part`), and its table rows on (q', p)
(`kernels._cable_rows`), so a prime's checks run once per distinct key.
Family knots place a prime's pieces by its role (p1 at indices 0..3, p2
at 4..7), so keys repeat across candidates.  A memoised PrimeResult holds
ints and Fractions only.  Progress is checkpointed
as JSON lines keyed by the candidate tuple, and a resumed sweep yields
byte-identical results because every stage is deterministic.  Every
checkpoint line also carries a "config" fingerprint (genus,
require_algebraic, package version); a resume under a different
fingerprint is refused rather than mixing verdicts of two configs.

Settings are strings under the keys of `SETTINGS`, from a config file or
from flags; `config_from_settings` alone turns them into a `SearchConfig`.
"""

from __future__ import annotations

import itertools
import json
import os
from math import comb
from typing import Callable, Iterator, NamedTuple, Optional

from . import __version__
from .knots import build_family
from .obstruction import genus_lower_bound
from .primes import is_odd_prime, odd_prime_count_floor, odd_primes_in

RANKINGS: dict[str, Callable[[tuple[int, int, int, int, int]], tuple]] = {
    "product": lambda t: (t[0] * t[1], t),
    "lex": lambda t: t,
    "maxprime": lambda t: (max(t), t),
}

MAX_CANDIDATES = 10**6  # most candidates a sweep lists and sorts (about 190 B each)
# the sorted keys of each record `_run_candidate` writes, with its "kept" value
_SHAPES = {("kept", "margins", "report", "tuple"): True, ("kept", "lower_bound", "margins", "tuple"): False, ("error", "tuple"): None}


class _ConfigFields(NamedTuple):
    p_primes: tuple[int, ...]
    q_primes: tuple[int, ...]
    require_algebraic: bool = True
    genus: int = 1
    ranking: str = "product"
    limit: Optional[int] = None


def _refuse_over_cap(p_count: int, q_count: int, quantity: str) -> None:
    """ValueError if pools of these sizes give more than MAX_CANDIDATES candidates."""
    count = comb(p_count, 2) * comb(q_count, 3) * 3
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"the pools give {quantity} {count} candidates, more than the "
            f"{MAX_CANDIDATES} a search lists; use smaller pools"
        )


class SearchConfig(_ConfigFields):
    """Sweep definition: prime pools, constraints and ranking.

    p_primes / q_primes are pools, stored ascending without repeats;
    require_algebraic keeps only candidates whose cable pieces all satisfy
    p > 4q.  Fields go by position or keyword, omitted ones take the
    defaults above; `config_from_settings` builds one from string settings.
    Pools that could give more than MAX_CANDIDATES candidates, C(|P|, 2) *
    C(|Q|, 3) * 3 before any filter, raise ValueError.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, *args, **kwargs) -> "SearchConfig":
        cfg = super().__new__(cls, *args, **kwargs)
        pools = (tuple(sorted(set(cfg.p_primes))), tuple(sorted(set(cfg.q_primes))))
        _refuse_over_cap(len(pools[0]), len(pools[1]), "up to")
        for v in cfg.p_primes + cfg.q_primes:
            if not is_odd_prime(v):
                raise ValueError(f"search pools must contain odd primes, got {v}")
        if cfg.ranking not in RANKINGS:
            raise ValueError(f"unknown ranking {cfg.ranking!r} (have {sorted(RANKINGS)})")
        if cfg.genus < 1:
            raise ValueError(f"genus hypothesis must be >= 1, got {cfg.genus}")
        if cfg.limit is not None and cfg.limit < 1:
            raise ValueError(f"limit must be >= 1, got {cfg.limit}")
        return super().__new__(cls, *pools, *cfg[2:])


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_INT = (int, "an integer")
_SET = (lambda s: tuple(int(x) for x in s.split(",") if x.strip()), "a comma list of integers")
MAX_WIDTH = 10**6  # widest p_min..p_max or q_min..q_max interval; each odd number in it is tested

# setting key -> (reader of its string value, what the string must be)
SETTINGS: dict[str, tuple[Callable[[str], object], str]] = {
    "p_set": _SET,
    "p_min": _INT,
    "p_max": _INT,
    "q_set": _SET,
    "q_min": _INT,
    "q_max": _INT,
    "genus": _INT,
    "require_algebraic": (lambda text: _BOOLEANS[text.lower()], "one of true/false/yes/no/1/0"),
    "ranking": (str, "one of " + "/".join(RANKINGS)),
    "limit": _INT,
}


def config_from_settings(settings: dict[str, str]) -> SearchConfig:
    """The SearchConfig that string settings (keys of SETTINGS) describe.

    Each pool is a set (p_set) or both ends of a prime interval (p_min <=
    p_max) at most MAX_WIDTH wide, likewise for q; other keys override the
    defaults.  Raises ValueError naming the key for an unknown key, a bad
    value, a missing pool, half an interval, a reversed or wider interval
    or a set given with an interval.  Pools that give more than
    MAX_CANDIDATES candidates even at the size `odd_prime_count_floor`
    bounds an interval's pool by are refused before any number is tested.
    """
    values = {}
    for key, text in settings.items():
        if key not in SETTINGS:
            raise ValueError(f"unknown search setting {key!r} (have {', '.join(SETTINGS)})")
        read, expected = SETTINGS[key]
        try:
            values[key] = read(text.strip())
        except (ValueError, KeyError):
            raise ValueError(f"{key} must be {expected}, got {text!r}") from None
    sizes, intervals = [], {}
    for pool in "pq":
        named, lo, hi = f"{pool}_set", f"{pool}_min", f"{pool}_max"
        if named in values and (lo in values or hi in values):
            raise ValueError(f"{named} and {lo}/{hi} both given: use a set or an interval")
        if (lo in values) != (hi in values):
            raise ValueError(f"{lo} and {hi} must be given together")
        if lo in values:
            width = values[hi] - values[lo]
            if width < 0:
                raise ValueError(f"{lo} must be at most {hi}, got {values[lo]} > {values[hi]}")
            if width > MAX_WIDTH:
                raise ValueError(f"{hi} - {lo} must be at most {MAX_WIDTH}, got {width}")
            intervals[named] = (values.pop(lo), values.pop(hi))
            sizes.append(odd_prime_count_floor(*intervals[named]))
        elif named in values:
            sizes.append(len(set(values[named])))
        else:
            raise ValueError(f"search needs a {pool} pool: {named}, or {lo} and {hi}")
    _refuse_over_cap(*sizes, "at least")
    for named, (lo, hi) in intervals.items():
        values[named] = tuple(odd_primes_in(lo, hi))
    return SearchConfig(p_primes=values.pop("p_set"), q_primes=values.pop("q_set"), **values)


def enumerate_candidates(cfg: SearchConfig) -> Iterator[tuple[int, int, int, int, int]]:
    """Candidate tuples in ranking order.

    p1 < p2 from the p-pool; {q1,q2,q3} a 3-subset of the q-pool disjoint
    from {p1,p2}; three slot assignments per subset with (q2,q3) sorted.
    """
    if len(cfg.q_primes) < 3:  # no q-subset, so no candidate from any p-pair
        return
    key = RANKINGS[cfg.ranking]
    out: list[tuple[int, int, int, int, int]] = []
    for p1, p2 in itertools.combinations(cfg.p_primes, 2):
        for qset in itertools.combinations(cfg.q_primes, 3):
            if p1 in qset or p2 in qset:
                continue
            if cfg.require_algebraic and min(p1, p2) <= 4 * max(qset):
                continue
            for q1 in qset:
                q2, q3 = sorted(q for q in qset if q != q1)
                out.append((p1, p2, q1, q2, q3))
    out.sort(key=key)
    yield from out


def _run_candidate(cand: tuple[int, int, int, int, int], cfg: SearchConfig) -> dict:
    """One candidate -> checkpoint record (kept/rejected/error)."""
    record: dict = {"tuple": list(cand)}
    try:
        K = build_family(*cand)
        report = genus_lower_bound(K, g_max=cfg.genus).to_dict()
        lower = report["genus"]["lower_bound"]
        record["kept"] = kept = lower >= cfg.genus + 1
        record["margins"] = {str(pr["p"]): pr["margin"] for pr in report["primes"]}
        if kept:
            record["report"] = report
        else:
            record["lower_bound"] = lower
    except Exception as exc:  # record, never abort the sweep
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _load_checkpoint(path: Optional[str], fingerprint: dict) -> dict[tuple, dict]:
    """Finished records by tuple, with their "config" field stripped.

    A final line without its newline is what a crash mid-write leaves: it
    is ignored and cut from the file, so appended records start on a line
    of their own.  An unreadable line anywhere else, a record written
    under another fingerprint, or one `_run_candidate` never writes (its
    `_SHAPES`, with a tuple of five ints) raises ValueError.
    """
    done: dict[tuple, dict] = {}
    if not (path and os.path.exists(path)):
        return done
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n") + 1
    for ln, line in enumerate(data[:end].decode("utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            key = tuple(rec["tuple"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{ln}: unreadable checkpoint record ({exc})") from None
        if rec.pop("config", None) != fingerprint:
            raise ValueError(
                f"{path}:{ln}: checkpoint was written by a search with a different "
                f"config; this search has {fingerprint}; use a new checkpoint file"
            )
        shape = tuple(sorted(rec))
        if shape not in _SHAPES or rec.get("kept") is not _SHAPES[shape] or [type(v) for v in key] != [int] * 5:
            raise ValueError(f"{path}:{ln}: damaged checkpoint record (keys {list(shape)})")
        done[key] = rec
    if end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    return done


def search(cfg: SearchConfig, checkpoint: Optional[str] = None) -> list[dict]:
    """Run the sweep; return the kept records in ranking order.

    With a checkpoint path, completed candidates are skipped on resume and
    new completions are appended as JSON lines in ranking order; the final
    kept list is identical to an uninterrupted run.  Resuming a checkpoint
    written under another genus, require_algebraic or package version
    raises ValueError.  Per-candidate errors become error records and
    never abort the sweep.  With cfg.limit, the sweep stops at the
    limit-th kept record: later candidates are neither evaluated nor
    recorded.  Candidates run one at a time, in ranking order, sharing the
    memoised scans and table rows of the module docstring, which live as
    long as the process.
    """
    # the settings a checkpoint record's verdict depends on
    fingerprint = {"genus": cfg.genus, "require_algebraic": cfg.require_algebraic, "version": __version__}
    done = _load_checkpoint(checkpoint, fingerprint)
    kept: list[dict] = []
    sink = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    try:
        for cand in enumerate_candidates(cfg):
            rec = done.get(cand)
            if rec is None:
                rec = _run_candidate(cand, cfg)
                if sink:
                    sink.write(json.dumps({**rec, "config": fingerprint}, ensure_ascii=False) + "\n")
                    sink.flush()
            if rec.get("kept"):
                kept.append(rec)
                if len(kept) == cfg.limit:
                    break
    finally:
        if sink:
            sink.close()
    return kept


def parse_config_file(path: str) -> dict[str, str]:
    """Read a search config file into {key: value string} for `config_from_settings`.

    A # starts a comment anywhere on a line; any nonblank line that is not
    `key = value` with a key of SETTINGS, or that repeats a key, raises
    ValueError with path:line.
    """
    settings: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or key not in SETTINGS:
                raise ValueError(f"{path}:{ln}: expected key = value for a known key, got {line!r}")
            if key in lines:
                raise ValueError(f"{path}:{ln}: {key} is already set at {path}:{lines[key]}")
            settings[key], lines[key] = value, ln
    return settings
