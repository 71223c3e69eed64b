"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Criteria 7 and 8 depend on projection displacements of size K per unit
exponent; reaching them forces word lengths beyond the golden-ratio growth
wall (see notes on the experiment design), so their runs report
"power-insufficient" distinctly rather than fabricating a pass.
"""

import itertools
import random
import sys
import time

import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
import oracles  # noqa: E402

from freefactor import (  # noqa: E402
    experiments as ex,
    factors as fc,
    farey,
    projections as pj,
    raag,
    serialize as se,
    stallings,
    systems as sy,
)
from freefactor.words import (  # noqa: E402
    abc_alphabet,
    compose_map,
    conjugation_by,
    invert_automorphism,
    is_inner,
    letter,
    word_from_str,
)


def _verdict(n, ok, detail):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def _chain_factors():
    F3 = abc_alphabet(3)
    return F3, [
        fc.free_factor_class(
            F3, [word_from_str(F3, "a"), word_from_str(F3, f"{'b ' * i}c")]
        )
        for i in range(5)
    ]


class TestCriterion1:
    def test_shared_cyclic_factor_family(self):
        t0 = time.monotonic()
        F3, facs = _chain_factors()
        canonical_a = fc.free_factor_class(F3, [word_from_str(F3, "a")]).key
        ok = True
        for i, j in itertools.combinations(range(5), 2):
            meets = fc.meet_projection(facs[i], facs[j])
            if len(meets) != 1 or next(iter(meets)).in_ambient.key != canonical_a:
                ok = False
            cert = fc.overlap_check(facs[i], facs[j])
            if cert is None:
                ok = False
            else:
                mc, H = cert
                if mc.in_ambient.key != canonical_a or H.rank != 3:
                    ok = False
        dt = time.monotonic() - t0
        _verdict(1, ok and dt < 1.0, f"10 pairs, meets and rank-3 certificates exact, {dt:.2f}s")


class TestCriterion2:
    def test_support_graphs_exhaustive(self):
        import networkx as nx

        t0 = time.monotonic()
        pent = raag.pentagon()
        ok = sy.complexity(pent) == 6 and sy.build_support_graph(pent).ambient_rank == 6
        n_graphs = 0
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if n < 2 or n > 7:
                continue
            names = [f"u{i}" for i in range(n)]
            sg = raag.simplicial_graph(
                names, [(f"u{a}", f"u{b}") for a, b in g.edges()]
            )
            G = sy.build_support_graph(sg)
            if G.ambient_rank != sy.complexity(sg):
                ok = False
            facs = [G.factor(i) for i in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                empty = not stallings.pullback_components(facs[i].graph, facs[j].graph)
                if empty != sg.adjacent(names[i], names[j]):
                    ok = False
                if empty:
                    # linked pair: join must be rank-additive (wedge summands)
                    join = stallings.from_generators(
                        G.ambient, facs[i].basis + facs[j].basis
                    )
                    if join.rank != facs[i].rank + facs[j].rank:
                        ok = False
            n_graphs += 1
        dt = time.monotonic() - t0
        _verdict(
            2,
            ok and dt < 60,
            f"complexity(pentagon)=6, coincidence pattern on {n_graphs} graphs <=7 vertices, {dt:.1f}s",
        )


class TestCriterion3:
    def test_farey_distances(self):
        t0 = time.monotonic()
        r = ex.run_experiment(
            ex.ExperimentConfig(mode="farey-crosscheck", seed=1)
        )
        dt = time.monotonic() - t0
        ok = r["verdict"] == "pass" and dt < 30
        _verdict(
            3,
            ok,
            f"{r['aggregates']['exhaustive_checked']} exhaustive vs BFS, "
            f"{r['aggregates']['metric_samples']} metric samples, {dt:.1f}s",
        )


class TestCriterion4:
    # Full exhaustive length-8 enumeration over the pentagon alphabet is
    # ~10^8 words and cannot fit the stated budget in any implementation of
    # the closure oracle; coverage here is exhaustive to the radius the
    # budget permits plus dense random sampling at length 8.
    GRAPHS = [
        ("path3", raag.simplicial_graph(["a", "b", "c"], [("a", "b"), ("b", "c")]), 6),
        ("tri3", raag.simplicial_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]), 6),
        ("pentagon", raag.pentagon(), 4),
    ]

    def test_normal_forms_and_order_closure(self):
        t0 = time.monotonic()
        ok = True
        checked = 0
        for name, g, radius in self.GRAPHS:
            adj = {frozenset(e) for e in g.edges}
            sylls = [(v, s) for v in g.vertices for s in (1, -1)]
            seen_normals = set()
            canonical = {}  # closure member -> canonical form, for this graph
            words = []
            for k in range(1, radius + 1):
                words.extend(itertools.product(sylls, repeat=k))
            rng = random.Random(4)
            for _ in range(2000):
                words.append(tuple(rng.choice(sylls) for _ in range(8)))
            for tup in words:
                w = raag.normalize(g, raag.raag_word(g, tup))
                want = oracles.raag_canonical(adj, tup, list(g.vertices), canonical)
                if w.key() != want:
                    ok = False
                checked += 1
                if w.key() not in seen_normals and len(w) <= 8:
                    seen_normals.add(w.key())
                    order = raag.syllable_order(g, w)
                    if order.precedes != order.closure_of_adjacent():
                        ok = False
        dt = time.monotonic() - t0
        _verdict(
            4,
            ok and dt < 120,
            f"{checked} words vs closure oracle + order-closure equality, {dt:.1f}s",
        )


class TestCriterion5:
    def test_projection_invariants(self):
        t0 = time.monotonic()
        assert pj.PROJECTION_DIAMETER_BOUND == 4  # enforced in ProjectionSet
        F3, facs = _chain_factors()
        rng = random.Random(5)
        ok = True
        pairs_checked = 0
        for _ in range(200):
            f = ex.random_automorphism(rng, F3, 6)
            A = rng.choice(facs[:3])
            T = ex.random_tree(rng, F3, 6)
            T2 = ex.random_tree(rng, F3, 6)
            # naturality: transporting everything by f preserves distances
            fA = fc.transport(f, A)
            if pj.projection_distance(fA, pj.transform_marked(f, T), pj.transform_marked(f, T2)) != pj.projection_distance(A, T, T2):
                ok = False
            # and meet keys
            B = rng.choice([x for x in facs if x != A])
            got = {m.in_ambient.key for m in fc.meet_projection(fA, fc.transport(f, B))}
            want = {
                fc.free_factor_class(F3, [f(w) for w in m.in_ambient.basis]).key
                for m in fc.meet_projection(A, B)
            }
            if got != want:
                ok = False
            # trivial restriction: an inner map fixes the projection exactly
            c = conjugation_by(ex.random_tree(rng, F3, 3).marking_words()[0])
            if pj.project_tree(A, pj.transform_marked(c, T)).vertices != pj.project_tree(A, T).vertices:
                ok = False
            pairs_checked += 1
        dt = time.monotonic() - t0
        _verdict(5, ok and dt < 60, f"diameter bound 4 + {pairs_checked} naturality triples, {dt:.1f}s")


class TestCriterion6:
    def test_behrstock_scan_and_order_audit(self):
        t0 = time.monotonic()
        r500 = ex.run_experiment(
            ex.ExperimentConfig(
                mode="behrstock-scan", fixture="overlap-chain-f3", samples=500, seed=6
            )
        )
        r1000 = ex.run_experiment(
            ex.ExperimentConfig(
                mode="behrstock-scan", fixture="overlap-chain-f3", samples=1000, seed=6
            )
        )
        m500, m1000 = r500["aggregates"]["M_emp"], r1000["aggregates"]["M_emp"]
        audit = ex.run_experiment(
            ex.ExperimentConfig(
                mode="order-audit", fixture="overlap-chain-f3", samples=100, seed=6
            )
        )
        met = audit["aggregates"]["met_precondition"]
        ok = (
            m500 >= 1
            and m500 == m1000
            and audit["verdict"] == "pass"
            and met >= 1
            and not audit["violations"]
        )
        dt = time.monotonic() - t0
        _verdict(
            6,
            ok and dt < 600,
            f"M_emp={m500} stable at 2x samples; order audit {met}/100 met precondition, "
            f"0 violations, {dt:.1f}s",
        )


class TestCriterion7:
    def test_per_syllable_displacement(self):
        t0 = time.monotonic()
        r = ex.run_experiment(
            ex.ExperimentConfig(
                mode="theorem9-check", fixture="pentagon-f5", samples=100, seed=7
            )
        )
        agg = r["aggregates"]
        checked, insufficient = agg["checked"], agg["power_insufficient"]
        ok = r["verdict"] == "pass" and not r["violations"] and insufficient == 0
        dt = time.monotonic() - t0
        _verdict(
            7,
            ok and dt < 1200,
            f"K={agg['K']}, power={agg['power']}: {checked} checked, "
            f"{insufficient} power-insufficient (label growth ~phi^(2 K |e|) exceeds "
            f"any in-budget length), {len(r['violations'])} violations, {dt:.1f}s",
        )


class TestCriterion8:
    def test_intervals_and_sandwich(self):
        t0 = time.monotonic()
        iv = ex.run_experiment(
            ex.ExperimentConfig(
                mode="interval-check", fixture="pentagon-f5", samples=20, seed=8
            )
        )
        qie = ex.run_experiment(
            ex.ExperimentConfig(
                mode="qie-sandwich", fixture="pentagon-f5", samples=100, seed=8
            )
        )
        t9 = ex.run_experiment(
            ex.ExperimentConfig(
                mode="theorem9-check", fixture="pentagon-f5", samples=100, seed=7
            )
        )
        # the sum bound needs every per-syllable distance of the criterion-7
        # sample set; unchecked samples leave it unverified
        sum_ok = True
        all_checked = True
        consts = t9["aggregates"]
        for rec in t9["records"]:
            if rec.get("status") == "checked":
                n_steps = consts["power"] * rec["total_exp"]
                if sum(rec["distances"]) > 5 * consts["s"] * consts["L_path"] * n_steps:
                    sum_ok = False
            elif rec.get("status") == "power-insufficient":
                all_checked = False
        ok = (
            iv["verdict"] == "pass"
            and qie["verdict"] == "pass"
            and sum_ok
            and all_checked
        )
        dt = time.monotonic() - t0
        _verdict(
            8,
            ok and dt < 1200,
            f"intervals {iv['verdict']} ({iv['aggregates']['checked']} checked), "
            f"sandwich {qie['verdict']}, sum bound on criterion-7 samples "
            f"{'verified' if all_checked else 'blocked by power-insufficient samples'}, {dt:.1f}s",
        )


class TestCriterion9:
    def test_automorphism_layer(self):
        t0 = time.monotonic()
        rng = random.Random(9)
        ok = True
        for _ in range(200):
            rank = rng.randint(2, 5)
            alphabet = abc_alphabet(rank) if rank <= 26 else None
            f = ex.random_automorphism(rng, alphabet, 10)
            g = invert_automorphism(f)
            if not compose_map(f, g).is_identity() or not compose_map(g, f).is_identity():
                ok = False
        for _ in range(200):
            rank = rng.randint(2, 4)
            alphabet = abc_alphabet(rank)
            w = ex.random_tree(rng, alphabet, 4).marking_words()[0]
            conj = conjugation_by(w)
            witness = is_inner(conj)
            if witness is None or conjugation_by(witness).images != conj.images:
                ok = False
        non_inner = 0
        while non_inner < 200:
            rank = rng.randint(2, 4)
            alphabet = abc_alphabet(rank)
            f = ex.random_automorphism(rng, alphabet, 6)
            # abelianization differing from the identity certifies non-inner
            ab = [[0] * rank for _ in range(rank)]
            for i, img in enumerate(f.images):
                for s in img.letters:
                    ab[abs(s) - 1][i] += 1 if s > 0 else -1
            if all(
                ab[i][j] == (1 if i == j else 0) for i in range(rank) for j in range(rank)
            ):
                continue
            if is_inner(f) is not None:
                ok = False
            non_inner += 1
        dt = time.monotonic() - t0
        _verdict(
            9,
            ok and dt < 30,
            f"200 round-trips ranks 2-5, 200 conjugations, {non_inner} certified non-inner, {dt:.1f}s",
        )
