"""Seeded, reproducible experiments over the shipped generator systems.

Modes:

* ``behrstock-scan``   — empirical bound M for the mixed-projection minimum
* ``order-audit``      — the order trichotomy diagnostics on far tree pairs
* ``theorem9-check``   — per-syllable lower bound d >= K|e| under escalated powers
* ``interval-check``   — activity intervals disjoint and ordered along paths
* ``qie-sandwich``     — the word-length sandwich |g| <= (5 s L / K) N
* ``farey-crosscheck`` — continued-fraction distances against a BFS oracle

Each record of a sampled mode has a status:

* ``order-audit``    — ``checked``, ``precondition-unmet``, ``pair-degenerate``,
  ``power-insufficient``
* ``theorem9-check`` — ``checked``, ``power-insufficient``, ``empty-word``
* ``interval-check`` — ``checked``, ``threshold-unmet``, ``power-insufficient``
* ``qie-sandwich``   — ``checked``

``behrstock-scan`` records carry no status, and ``farey-crosscheck`` keeps no
records.  A violation is a ``checked`` record that fails a check, or in
``theorem9-check`` a ``power-insufficient`` one whose computed distances fall
short.

Every run is a pure function of (fixture, mode, seed, samples): reports are
canonical JSON and byte-identical across runs.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, floor, gcd
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from freefactor import farey, projections as pj, raag, serialize as se
from freefactor import systems as sy
from freefactor.errors import FreefactorError, NotPositive, UnknownMode
from freefactor.raag import RaagWord
from freefactor.words import (
    Alphabet,
    GroupMap,
    compose_map,
    identity_map,
    invert_automorphism,
    map_power,
    transvection,
)

MODES = (
    "behrstock-scan",
    "order-audit",
    "theorem9-check",
    "interval-check",
    "qie-sandwich",
    "farey-crosscheck",
)

MAX_POWER = 2 ** 10
# cap on p * sum|e_i|: label lengths grow geometrically in this exponent
DEFAULT_BUDGET_EXP = 14
NIELSEN_TREE_LENGTH = 12
FAREY_BOX = 40                # farey-crosscheck exhaustive box
FAREY_RANDOM_PAIRS = 10_000   # farey-crosscheck metric checks


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    fixture: str = "pentagon-f5"
    samples: int = 100
    seed: int = 1
    power: Optional[int] = None          # None = auto-escalate

    def __post_init__(self):
        if self.mode not in MODES:
            raise UnknownMode(f"unknown mode {self.mode!r}; expected one of {', '.join(MODES)}")
        if self.samples < 1:
            raise NotPositive(f"samples must be >= 1, not {self.samples}")
        if self.power is not None and self.power < 1:
            raise NotPositive(f"power must be >= 1, not {self.power}")


# --- random trees -----------------------------------------------------------

@lru_cache(maxsize=None)
def nielsen_generators(alphabet: Alphabet) -> Tuple[GroupMap, ...]:
    """Right transvections x_i -> x_i x_j^s: a fixed generating set used for
    sampling, built once per alphabet; each carries its inverse, so none is
    folded to certify it."""
    n = alphabet.rank
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return tuple(transvection(alphabet, i, j, s) for i, j in pairs for s in (1, -1))

def random_automorphism(rng: random.Random, alphabet: Alphabet, max_len: int) -> GroupMap:
    """f = t_m o ... o t_1 for up to ``max_len`` moves t drawn from the
    Nielsen generators, t_1 first: one ``compose_map`` of the certified
    transvections, so f carries its inverse t_1^-1 o ... o t_m^-1.
    """
    gens = nielsen_generators(alphabet)
    draws = [rng.choice(gens) for _ in range(rng.randint(0, max_len))]
    if not draws:
        return identity_map(alphabet)
    return compose_map(*reversed(draws))


def random_tree(rng: random.Random, alphabet: Alphabet, max_len: int) -> pj.MarkedGraph:
    return pj.transform_marked(
        random_automorphism(rng, alphabet, max_len), pj.rose(alphabet)
    )


def random_raag_word(
    rng: random.Random, gamma, max_syllables: int = 6, max_exp: int = 3
) -> RaagWord:
    n = rng.randint(1, max_syllables)
    syls = []
    for _ in range(n):
        e = rng.randint(1, max_exp) * rng.choice((1, -1))
        syls.append((rng.choice(sorted(gamma.vertices)), e))
    return raag.normalize(gamma, raag.raag_word(gamma, syls))


# --- derived constants ------------------------------------------------------

def _overlapping_pairs(system: sy.AdmissibleSystem) -> List[Tuple[int, int]]:
    coll = system.collection
    return [
        (i, j)
        for i, j, kind in coll.classifications
        if kind == "overlap"
    ]


def _behrstock_minima(
    system: sy.AdmissibleSystem, rng: random.Random, samples: int, max_len: int
) -> Iterator[List[int]]:
    """Per random tree T, min{d_A(B, T), d_B(A, T)} for each overlapping pair
    in ``_overlapping_pairs`` order.  The factor shadows π_A(B) and π_B(A) do
    not depend on T; they are read off the collection, which projects each
    once, and an overlapping pair without one raises before the first tree."""
    coll = system.collection
    pairs = [
        (coll.factors[i], coll.shadow(i, j), coll.factors[j], coll.shadow(j, i))
        for i, j in _overlapping_pairs(system)
    ]
    for _ in range(samples):
        T = random_tree(rng, coll.factors[0].ambient, max_len)
        yield [
            min(pj.projection_distance(A, b_in_A, T), pj.projection_distance(B, a_in_B, T))
            for A, b_in_A, B, a_in_B in pairs
        ]


def measure_m_emp(system: sy.AdmissibleSystem, seed: int, samples: int) -> int:
    """Max of the Behrstock minimum over random trees and overlapping pairs."""
    minima = _behrstock_minima(system, random.Random(seed), samples, NIELSEN_TREE_LENGTH)
    return max((m for mins in minima for m in mins), default=0)


def _power_path(f: GroupMap, steps: int) -> List[pj.MarkedGraph]:
    """[R, f R, ..., f^steps R] from the rose R, each tree marked by f^k."""
    R = pj.rose(f.domain)
    return [pj.transform_marked(map_power(f, k), R) for k in range(steps + 1)]


def measure_l_path(system: sy.AdmissibleSystem, steps: int = 4) -> int:
    """Max per-step projection displacement when applying one generator power."""
    coll = system.collection
    best = 1
    for f in system.maps:
        path = pj.TreePath(tuple(_power_path(f, steps)))
        for A in coll.factors:
            best = max(best, path.step_bound(A))
    return best


def derive_constants(system: sy.AdmissibleSystem, seed: int, scan_samples: int = 100) -> Dict:
    coll = system.collection
    ambient = coll.factors[0].ambient
    rose = pj.rose(ambient)
    m_emp = measure_m_emp(system, seed, scan_samples)
    l_path = measure_l_path(system)
    maxd = max(
        (pj.projection_distance(coll.factors[i], rose, shadow) for (i, _j), shadow in coll.shadows.items()),
        default=0,
    )
    s = raag.clique_number(coll.gamma)
    K = 5 * m_emp + 3 * l_path + 2 * maxd
    return {"M_emp": m_emp, "L_path": l_path, "max_factor_dist": maxd, "s": s, "K": K}


def escalate_power(K: int, requested: Optional[int]) -> int:
    """Smallest power of two >= K (capped), unless one was requested."""
    if requested is not None:
        return requested
    p = 1
    while p < K and p < MAX_POWER:
        p *= 2
    return p


# --- modes ------------------------------------------------------------------

def _run_behrstock_scan(cfg: ExperimentConfig, system: sy.AdmissibleSystem) -> Dict:
    names = system.collection.names
    rows = list(_behrstock_minima(system, random.Random(cfg.seed), cfg.samples, NIELSEN_TREE_LENGTH))
    per_pair = {
        f"{names[i]}|{names[j]}": max((row[p] for row in rows), default=0)
        for p, (i, j) in enumerate(_overlapping_pairs(system))
    }
    return {
        "records": [{"sample": k, "max_min": max(row, default=0)} for k, row in enumerate(rows)],
        "aggregates": {"M_emp": max(per_pair.values(), default=0), "per_pair": per_pair},
        "violations": [],
    }


def _sampled(samples: int, fill: Callable[[Dict], bool]) -> Tuple[Dict, Counter]:
    """A report body of one record per sample, numbered and filled in by
    ``fill``, which sets its status and says whether it is a violation; and
    the counts of the statuses.  The caller adds the aggregates."""
    records: List[Dict] = []
    violations: List[Dict] = []
    for k in range(samples):
        rec: Dict = {"sample": k}
        if fill(rec):
            violations.append(rec)
        records.append(rec)
    return {"records": records, "violations": violations}, Counter(rec["status"] for rec in records)


def _sampled_pairs(
    rng: random.Random, samples: int, system: sy.AdmissibleSystem, m_push: int,
    fill: Callable[[Dict, int, int], bool],
) -> Tuple[Dict, Counter]:
    """``_sampled`` over overlapping pairs (i, j) drawn from ``rng`` in random
    order and named in each record; a push power over the exponent budget
    makes every record ``power-insufficient`` without calling ``fill``."""
    names = system.collection.names
    pairs = _overlapping_pairs(system)

    def draw(rec: Dict) -> bool:
        i, j = rng.choice(pairs)
        if rng.random() < 0.5:
            i, j = j, i
        rec["pair"] = [names[i], names[j]]
        if m_push > DEFAULT_BUDGET_EXP:
            rec["status"] = "power-insufficient"
            return False
        return fill(rec, i, j)

    return _sampled(samples, draw)


def _run_order_audit(cfg: ExperimentConfig, system: sy.AdmissibleSystem) -> Dict:
    rng = random.Random(cfg.seed)
    coll = system.collection
    M = measure_m_emp(system, cfg.seed + 1, min(100, cfg.samples))
    K = 2 * M + 1
    m_push = max(K, 4)

    def fill(rec: Dict, i: int, j: int) -> bool:
        T = random_tree(rng, coll.factors[0].ambient, 4)
        if (i, j) not in coll.shadows:
            rec["status"] = "pair-degenerate"
            return False
        # the pair (A_i, f_i^m A_j) on (T, f_i^m f_j^m T), pulled back by the
        # isometry f_i^-m: f_i^m fixes A_i, and meets are equivariant
        T1 = pj.transform_marked(map_power(system.maps[i], -m_push), T)
        T2 = pj.transform_marked(map_power(system.maps[j], m_push), T)
        A, B = coll.factors[i], coll.factors[j]
        dA = pj.projection_distance(A, T1, T2)
        dB = pj.projection_distance(B, T1, T2)
        rec["d_A"], rec["d_B"] = dA, dB
        if dA < K or dB < K:
            rec["status"] = "precondition-unmet"
            return False
        shadows = (coll.shadow(i, j), coll.shadow(j, i))
        v_ab = pj.factor_order(A, B, T1, T2, M, shadows)
        v_ba = pj.factor_order(B, A, T1, T2, M, shadows[::-1])
        first = v_ab if v_ab.first_precedes_second else v_ba
        rec["status"] = "checked"
        rec["checks"] = checks = {
            "exactly_one_order": v_ab.first_precedes_second != v_ba.first_precedes_second,
            "far_shadow_at_start": first.d_A_T_B >= M + 1,
            "near_shadow_at_start": first.d_B_T_A <= M,
            "far_shadow_at_end": first.d_B_T2_A >= M + 1,
            "near_shadow_at_end": first.d_A_T2_B <= M,
        }
        return not all(checks.values())

    body, status = _sampled_pairs(rng, cfg.samples, system, m_push, fill)
    body["aggregates"] = {
        "M_emp": M,
        "K": K,
        "push_power": m_push,
        "met_precondition": status["checked"],
        "power_insufficient": status["power-insufficient"],
    }
    return body


def _run_theorem9(cfg: ExperimentConfig, system: sy.AdmissibleSystem) -> Dict:
    rng = random.Random(cfg.seed)
    consts = derive_constants(system, cfg.seed + 1)
    K = consts["K"]
    p = escalate_power(K, cfg.power)
    gamma = system.collection.gamma
    rose = pj.rose(system.collection.factors[0].ambient)

    def fill(rec: Dict) -> bool:
        g = random_raag_word(rng, gamma)
        exps = [abs(s.exp) for s in g.syllables]
        rec["word"] = [[s.gen, s.exp] for s in g.syllables]
        rec["total_exp"] = sum(exps)
        if not exps:
            rec["status"] = "empty-word"
            return False
        # d_{A^g(k)}(T, phi(g)T) is invariant under the global isometry
        # (prefix . f^{p e_k})^{-1}, which splits phi(g) at the active
        # syllable; both sides stay small when the split is balanced
        scaled = [(gen, p * e) for gen, e in g.key()]
        dists: List[Optional[int]] = []
        for idx, syl in enumerate(g.syllables):
            left_exp = p * sum(exps[: idx + 1])
            right_exp = p * sum(exps[idx + 1 :])
            if max(left_exp, right_exp) > DEFAULT_BUDGET_EXP:
                dists.append(None)
                continue
            left = sy.apply_phi(system, scaled[: idx + 1])
            T1 = pj.transform_marked(invert_automorphism(left), rose)
            T2 = pj.transform_marked(sy.apply_phi(system, scaled[idx + 1 :]), rose)
            A = system.collection.factors[system.collection.index(syl.gen)]
            dists.append(pj.projection_distance(A, T1, T2))
        rec["distances"] = dists
        rec["required"] = [K * e for e in exps]
        rec["status"] = "power-insufficient" if None in dists else "checked"
        return any(d is not None and d < r for d, r in zip(dists, rec["required"]))

    body, status = _sampled(cfg.samples, fill)
    checked, insufficient = status["checked"], status["power-insufficient"]
    violations = body["violations"]
    verdict = (
        "pass"
        if not violations and not insufficient
        else ("power-insufficient" if not violations and checked == 0 else "fail")
    )
    body["aggregates"] = {
        **consts,
        "power": p,
        "checked": checked,
        "power_insufficient": insufficient,
        "theorem_verdict": verdict,
    }
    return body


def _run_interval_check(cfg: ExperimentConfig, system: sy.AdmissibleSystem) -> Dict:
    rng = random.Random(cfg.seed)
    coll = system.collection
    M = measure_m_emp(system, cfg.seed + 1, min(100, cfg.samples))
    L = measure_l_path(system)
    K = 5 * M + 3 * L
    s = raag.clique_number(coll.gamma)
    m_push = K + 1

    @lru_cache(maxsize=None)
    def segment(idx: int, inverse: bool) -> List[pj.MarkedGraph]:
        f = system.maps[idx]
        return _power_path(invert_automorphism(f) if inverse else f, m_push)

    def fill(rec: Dict, i: int, j: int) -> bool:
        # two-segment staggered path f_i^k R (k <= m), then f_i^m f_j^k R,
        # pulled back by the isometry f_i^{-m} so every label stays small;
        # the pullback carries the transported second factor back to A_j
        trees = list(reversed(segment(i, True))) + segment(j, False)[1:]
        path = pj.TreePath(tuple(trees))
        A = coll.factors[i]
        B2 = coll.factors[j]
        try:
            ra = pj.interval_of(path, A, M, L)
            rb = pj.interval_of(path, B2, M, L)
        except FreefactorError as exc:
            rec["status"] = "threshold-unmet"
            rec["detail"] = str(exc)
            return False
        total = sum(
            pj.projection_distance(F, trees[0], trees[-1]) for F in (A, B2)
        )
        rec["status"] = "checked"
        rec["intervals"] = {"first": [ra.a, ra.b], "second": [rb.a, rb.b]}
        rec["checks"] = checks = {
            "disjoint": ra.b <= rb.a or rb.b <= ra.a,
            "ordered_first_before_second": ra.b <= rb.a,
            "sum_bound": total <= 5 * s * L * path.length,
        }
        return not all(checks.values())

    body, status = _sampled_pairs(rng, cfg.samples, system, m_push, fill)
    body["aggregates"] = {
        "M_emp": M,
        "L_path": L,
        "K": K,
        "s": s,
        "push_power": m_push,
        "checked": status["checked"],
        "power_insufficient": status["power-insufficient"],
    }
    return body


def _run_qie_sandwich(cfg: ExperimentConfig, system: sy.AdmissibleSystem) -> Dict:
    rng = random.Random(cfg.seed)
    consts = derive_constants(system, cfg.seed + 1)
    K, L, s = consts["K"], consts["L_path"], consts["s"]
    p = escalate_power(K, cfg.power)
    gamma = system.collection.gamma

    def fill(rec: Dict) -> bool:
        g = random_raag_word(rng, gamma)
        size = sum(abs(s_.exp) for s_ in g.syllables)
        N = p * size  # one path step per generator application
        bound = 5 * s * L * N / K if K else float("inf")
        rec.update(word_size=size, path_length=N, bound=bound, status="checked")
        return size > bound

    body, _ = _sampled(cfg.samples, fill)
    body["aggregates"] = {**consts, "power": p}
    return body


# --- farey crosscheck -------------------------------------------------------

def _bfs_distances(base: Tuple[int, int], box: int) -> Dict[Tuple[int, int], int]:
    def norm(p, q):
        lead = p if p != 0 else q
        return (-p, -q) if lead < 0 else (p, q)

    def t_range(c, d):
        # integers t with |c + t*d| <= box (d may be 0)
        if d == 0:
            return (-10 ** 9, 10 ** 9) if abs(c) <= box else (1, 0)
        ends = ((-box - c) / d, (box - c) / d)
        lo, hi = min(ends), max(ends)
        return ceil(lo), floor(hi)

    def neighbors(p, q):
        # solutions of p*q2 - q*p2 = 1 are one Bezout pair plus integer
        # multiples of (p, q); the det = -1 line is its negation, which the
        # sign normalization folds onto the same vertices
        a, b = abs(p), abs(q)
        x0, x1, y0, y1 = 1, 0, 0, 1
        while b:
            qq, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - qq * x1
            y0, y1 = y1, y0 - qq * y1
        sp = 1 if p >= 0 else -1
        sq = 1 if q >= 0 else -1
        q2, p2 = sp * x0, -sq * y0  # p*q2 - q*p2 == 1
        lo1, hi1 = t_range(p2, p)
        lo2, hi2 = t_range(q2, q)
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        return [norm(p2 + t * p, q2 + t * q) for t in range(lo, hi + 1)]

    start = norm(*base)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbors(*v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def _run_farey_crosscheck(cfg: ExperimentConfig) -> Dict:
    rng = random.Random(cfg.seed)
    # BFS over a larger box so in-box geodesics are unconstrained
    dist = _bfs_distances((1, 0), 4 * FAREY_BOX)
    base = farey.farey_vertex(1, 0)
    mismatches = []
    checked = 0
    for p in range(-FAREY_BOX, FAREY_BOX + 1):
        for q in range(-FAREY_BOX, FAREY_BOX + 1):
            if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
                continue
            v = farey.farey_vertex(p, q)
            got = farey.farey_distance(base, v)
            want = dist[(v.p, v.q)]
            checked += 1
            if got != want:
                mismatches.append({"p": p, "q": q, "got": got, "bfs": want})
    metric_fail = []
    for k in range(FAREY_RANDOM_PAIRS):
        def rand_vertex():
            while True:
                p = rng.randint(-200, 200)
                q = rng.randint(-200, 200)
                if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                    return farey.farey_vertex(p, q)
        a, b, c = rand_vertex(), rand_vertex(), rand_vertex()
        dab = farey.farey_distance(a, b)
        ok = (
            dab == farey.farey_distance(b, a)
            and dab <= farey.farey_distance(a, c) + farey.farey_distance(c, b)
            and (dab == 0) == (a == b)
        )
        if not ok:
            metric_fail.append({"sample": k, "a": str(a), "b": str(b), "c": str(c)})
    violations = mismatches + metric_fail
    return {
        "records": [],
        "aggregates": {
            "exhaustive_checked": checked,
            "metric_samples": FAREY_RANDOM_PAIRS,
            "mismatches": len(mismatches),
            "metric_failures": len(metric_fail),
        },
        "violations": violations,
    }


# --- entry point ------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> Dict:
    """Execute one mode and assemble the canonical report dictionary."""
    if cfg.mode == "farey-crosscheck":
        body = _run_farey_crosscheck(cfg)
    else:
        system = se.load_fixture(cfg.fixture)
        runner = {
            "behrstock-scan": _run_behrstock_scan,
            "order-audit": _run_order_audit,
            "theorem9-check": _run_theorem9,
            "interval-check": _run_interval_check,
            "qie-sandwich": _run_qie_sandwich,
        }[cfg.mode]
        body = runner(cfg, system)
    insufficient = body["aggregates"].get("power_insufficient", 0)
    if body["violations"]:
        verdict = "fail"
    elif insufficient:
        verdict = "power-insufficient"
    else:
        verdict = "pass"
    return {
        "config": {
            "mode": cfg.mode,
            "fixture": cfg.fixture if cfg.mode != "farey-crosscheck" else None,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "nielsen_len": NIELSEN_TREE_LENGTH,
            "power": cfg.power,
            "budget_exp": DEFAULT_BUDGET_EXP,
        },
        "records": body["records"],
        "aggregates": body["aggregates"],
        "verdict": verdict,
        "violations": body["violations"],
    }
