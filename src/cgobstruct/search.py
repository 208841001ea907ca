"""Sweep prime tuples (p1,p2,q1,q2,q3) and rank the verified family knots.

Candidates are built from a pool of p-primes and a pool of q-primes:
unordered pairs p1 < p2, 3-element q-subsets disjoint from the pair, and,
because the q1 slot pairs across the two prime groups differently than q2
and q3 do, all three distinct slot assignments of each q-set (q2 and q3
appear symmetrically, so only their sorted order is tried).  The default
ranking orders candidates by N = p1*p2, then lexicographically; the
ranking key is configurable and recorded in the results.

Each candidate runs the full genus pipeline; candidates certifying a
lower bound of at least genus+1 are retained.  Progress is checkpointed
as JSON lines keyed by the candidate tuple, and a resumed sweep yields
byte-identical results because every stage is deterministic.  Every
checkpoint line also carries a "config" fingerprint (genus,
require_algebraic, package version); a resume under a different
fingerprint is refused rather than mixing verdicts of two configs.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import __version__
from .knots import build_family
from .obstruction import genus_lower_bound
from .primes import is_odd_prime, odd_primes_in

RANKINGS: dict[str, Callable[[tuple[int, int, int, int, int]], tuple]] = {
    "product": lambda t: (t[0] * t[1], t),
    "lex": lambda t: t,
    "maxprime": lambda t: (max(t), t),
}


@dataclass(frozen=True)
class SearchConfig:
    """Sweep definition: prime pools, constraints and ranking.

    p_primes / q_primes are explicit ascending pools (build them from
    interval bounds with `SearchConfig.from_bounds`).  require_algebraic
    keeps only candidates whose cable pieces all satisfy p > 4q.
    """

    p_primes: tuple[int, ...]
    q_primes: tuple[int, ...]
    require_algebraic: bool = True
    genus: int = 1
    ranking: str = "product"
    limit: Optional[int] = None
    threads: int = 1

    def __post_init__(self) -> None:
        for v in self.p_primes + self.q_primes:
            if not is_odd_prime(v):
                raise ValueError(f"search pools must contain odd primes, got {v}")
        if self.ranking not in RANKINGS:
            raise ValueError(f"unknown ranking {self.ranking!r} (have {sorted(RANKINGS)})")
        if self.genus < 1:
            raise ValueError(f"genus hypothesis must be >= 1, got {self.genus}")
        object.__setattr__(self, "p_primes", tuple(sorted(set(self.p_primes))))
        object.__setattr__(self, "q_primes", tuple(sorted(set(self.q_primes))))

    @staticmethod
    def from_bounds(
        p_min: int, p_max: int, q_min: int, q_max: int, **kwargs
    ) -> "SearchConfig":
        return SearchConfig(
            p_primes=tuple(odd_primes_in(p_min, p_max)),
            q_primes=tuple(odd_primes_in(q_min, q_max)),
            **kwargs,
        )


def enumerate_candidates(cfg: SearchConfig) -> Iterator[tuple[int, int, int, int, int]]:
    """Candidate tuples in ranking order.

    p1 < p2 from the p-pool; {q1,q2,q3} a 3-subset of the q-pool disjoint
    from {p1,p2}; three slot assignments per subset with (q2,q3) sorted.
    """
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
        report = genus_lower_bound(K, g_max=cfg.genus)
        kept = report.genus.lower_bound >= cfg.genus + 1
        record["kept"] = kept
        record["margins"] = {
            str(pr.p): (
                f"{pr.margin.numerator}/{pr.margin.denominator}"
                if pr.margin is not None
                else None
            )
            for pr in report.primes
        }
        if kept:
            record["report"] = report.to_dict()
        else:
            record["lower_bound"] = report.genus.lower_bound
    except Exception as exc:  # record, never abort the sweep
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _fingerprint(cfg: SearchConfig) -> dict:
    """The settings a checkpoint record's verdict depends on."""
    return {"genus": cfg.genus, "require_algebraic": cfg.require_algebraic, "version": __version__}


def _load_checkpoint(path: Optional[str], fingerprint: dict) -> dict[tuple, dict]:
    """Finished records by tuple, with their "config" field stripped.

    A final line without its newline is what a crash mid-write leaves: it
    is ignored and cut from the file, so appended records start on a line
    of their own.  An unreadable line anywhere else, or a record written
    under another fingerprint, raises ValueError.
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
        done[key] = rec
    if end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    return done


def search(cfg: SearchConfig, checkpoint: Optional[str] = None) -> list[dict]:
    """Run the sweep; return the kept records in ranking order.

    With a checkpoint path, completed candidates are skipped on resume and
    new completions are appended as JSON lines; the final kept list is
    identical to an uninterrupted run.  Resuming a checkpoint written
    under another genus, require_algebraic or package version raises
    ValueError.  Per-candidate errors become error records and never
    abort the sweep.  cfg.threads > 1 evaluates candidates concurrently
    while preserving ranking order of results.
    """
    fingerprint = _fingerprint(cfg)
    done = _load_checkpoint(checkpoint, fingerprint)
    candidates = list(enumerate_candidates(cfg))
    todo = [c for c in candidates if c not in done]

    fresh: dict[tuple, dict] = {}
    sink = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    try:
        if cfg.threads > 1 and len(todo) > 1:
            from concurrent.futures import ThreadPoolExecutor  # only pooled sweeps pay for it
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                for rec in pool.map(lambda c: _run_candidate(c, cfg), todo):
                    fresh[tuple(rec["tuple"])] = rec
                    if sink:
                        _append(sink, rec, fingerprint)
        else:
            for cand in todo:
                rec = _run_candidate(cand, cfg)
                fresh[cand] = rec
                if sink:
                    _append(sink, rec, fingerprint)
    finally:
        if sink:
            sink.close()

    kept: list[dict] = []
    for cand in candidates:
        rec = done.get(cand) or fresh.get(cand)
        if rec and rec.get("kept"):
            kept.append(rec)
            if cfg.limit is not None and len(kept) >= cfg.limit:
                break
    return kept


def _append(sink, rec: dict, fingerprint: dict) -> None:
    sink.write(json.dumps({**rec, "config": fingerprint}, ensure_ascii=False) + "\n")
    sink.flush()


def parse_config_file(path: str) -> dict:
    """Read the documented key=value search config format.

    Keys: p_min/p_max or p_set (comma list); q_min/q_max or q_set;
    genus; require_algebraic (true/false); ranking; limit; threads.
    Blank lines and lines starting with # are skipped.
    """
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
            k, v = line.split("=", 1)
            raw[k.strip()] = v.strip()
    out: dict = {}
    if "p_set" in raw:
        out["p_primes"] = tuple(int(x) for x in raw["p_set"].split(",") if x.strip())
    elif "p_min" in raw or "p_max" in raw:
        out["p_primes"] = tuple(odd_primes_in(int(raw["p_min"]), int(raw["p_max"])))
    if "q_set" in raw:
        out["q_primes"] = tuple(int(x) for x in raw["q_set"].split(",") if x.strip())
    elif "q_min" in raw or "q_max" in raw:
        out["q_primes"] = tuple(odd_primes_in(int(raw["q_min"]), int(raw["q_max"])))
    if "genus" in raw:
        out["genus"] = int(raw["genus"])
    if "require_algebraic" in raw:
        out["require_algebraic"] = raw["require_algebraic"].lower() in ("1", "true", "yes")
    if "ranking" in raw:
        out["ranking"] = raw["ranking"]
    if "limit" in raw:
        out["limit"] = int(raw["limit"])
    if "threads" in raw:
        out["threads"] = int(raw["threads"])
    return out
