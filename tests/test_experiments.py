import hashlib
import random
from dataclasses import asdict

import pytest

from freefactor import experiments as ex, factors as fc, farey, projections as pj, serialize as se
from freefactor import systems as sy
from freefactor.errors import NotPositive, UndefinedProjection, UnknownMode
from freefactor.words import abc_alphabet, map_power, std_alphabet, transvection
from oracles import direct_order_distances, left_multiplied_automorphism

FIXTURES = ("overlap-chain-f3", "pentagon-f5", "pentagon-support-f6")


class TestRandomSampling:
    def test_nielsen_generators_count(self):
        # n(n-1) ordered pairs, two signs each
        gens = ex.nielsen_generators(abc_alphabet(3))
        assert len(gens) == 12
        assert all(g.inverse_images is not None for g in gens)

    def test_nielsen_generators_built_once_in_order(self):
        alphabet = std_alphabet(4)
        gens = ex.nielsen_generators(alphabet)
        fresh = [
            transvection(alphabet, i, j, s)
            for i in range(4) for j in range(4) if i != j for s in (1, -1)
        ]
        assert isinstance(gens, tuple)
        assert list(gens) == fresh
        assert [g.inverse_images for g in gens] == [f.inverse_images for f in fresh]
        assert ex.nielsen_generators(std_alphabet(4)) is gens

    @pytest.mark.parametrize("make_alphabet", [abc_alphabet, std_alphabet])
    def test_random_automorphism_matches_left_multiplication(self, make_alphabet):
        # same images, same inverse images, and the rng left in the same state
        for n in range(2, 7):
            alphabet = make_alphabet(n)
            for max_len in range(21):
                for seed in range(3):
                    rng, oracle_rng = random.Random(seed), random.Random(seed)
                    f = ex.random_automorphism(rng, alphabet, max_len)
                    images, inverse_images = left_multiplied_automorphism(oracle_rng, n, max_len)
                    assert f.domain == f.codomain == alphabet
                    assert tuple(w.letters for w in f.images) == images
                    assert tuple(w.letters for w in f.inverse_images) == inverse_images
                    assert rng.random() == oracle_rng.random()

    def test_random_tree_reproducible(self):
        import random

        a = ex.random_tree(random.Random(42), std_alphabet(3), 8)
        b = ex.random_tree(random.Random(42), std_alphabet(3), 8)
        assert a == b

    def test_random_raag_word_normalized(self):
        import random

        from freefactor import raag

        g = raag.pentagon()
        rng = random.Random(7)
        for _ in range(20):
            w = ex.random_raag_word(rng, g)
            assert w.key() == raag.normalize(g, w).key()
            assert len(w) <= 6


class TestBehrstockMinima:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_matches_behrstock_min(self, fixture):
        system = se.load_fixture(fixture)
        coll = system.collection
        pairs = ex._overlapping_pairs(system)
        rows = list(ex._behrstock_minima(system, random.Random(4), 6, ex.NIELSEN_TREE_LENGTH))
        assert len(rows) == 6
        # the loop draws from its rng only through random_tree; the shadows
        # are projected afresh, not read off the collection
        rng = random.Random(4)
        fresh = [
            (coll.factors[i], pj.factor_shadow(coll.factors[i], coll.factors[j]),
             coll.factors[j], pj.factor_shadow(coll.factors[j], coll.factors[i]))
            for i, j in pairs
        ]
        for mins in rows:
            T = ex.random_tree(rng, coll.factors[0].ambient, ex.NIELSEN_TREE_LENGTH)
            assert mins == [
                min(farey.diameter(b_in_a.vertices | pj.project_tree(A, T).vertices),
                    farey.diameter(a_in_b.vertices | pj.project_tree(B, T).vertices))
                for A, b_in_a, B, a_in_b in fresh
            ]

    def test_factor_shadows_projected_once(self, monkeypatch):
        calls = []
        meet = fc.meet_projection

        def counting(A, B):
            calls.append((A, B))
            return meet(A, B)

        monkeypatch.setattr(fc, "meet_projection", counting)
        loaded = se.load_fixture("pentagon-f5")
        coll = loaded.collection
        # a fresh collection, on which no shadow has been projected yet
        fresh = sy.AdmissibleSystem(
            sy.AdmissibleCollection(coll.names, coll.factors, coll.gamma, coll.classifications),
            loaded.maps, loaded.power, loaded.restriction_hyperbolic,
        )
        rows = list(ex._behrstock_minima(fresh, random.Random(5), 7, ex.NIELSEN_TREE_LENGTH))
        assert len(rows) == 7
        n = len(coll.factors)
        ordered = {(A, B) for A in coll.factors for B in coll.factors if A != B}
        assert calls and len(set(calls)) == len(calls) <= n * (n - 1)
        assert set(calls) <= ordered
        # a second scan on the loaded fixture reads the shadows it kept
        cfg = ex.ExperimentConfig(mode="behrstock-scan", fixture="pentagon-f5", samples=7, seed=5)
        ex.run_experiment(cfg)
        calls.clear()
        r = ex.run_experiment(cfg)
        assert len(r["records"]) == 7
        assert calls == []

    def test_order_audit_reads_the_collections_shadows(self, monkeypatch):
        calls = []
        meet = fc.meet_projection
        monkeypatch.setattr(fc, "meet_projection", lambda A, B: calls.append((A, B)) or meet(A, B))
        cfg = ex.ExperimentConfig(mode="order-audit", fixture="pentagon-f5", samples=3, seed=1)
        first = ex.run_experiment(cfg)
        calls.clear()
        second = ex.run_experiment(cfg)
        assert second == first
        assert [rec["status"] for rec in second["records"]] == ["checked"] * 3
        assert calls == []

    def test_overlapping_pair_without_shadow_refused(self):
        # claim "overlap" for a disjoint pair whose factors do not meet
        coll = se.load_fixture("pentagon-f5").collection
        i, j = next(
            (i, j) for i, j, kind in coll.classifications
            if kind == "disjoint" and (i, j) not in coll.shadows
        )
        relabelled = tuple(
            (a, b, "overlap" if (a, b) == (i, j) else kind) for a, b, kind in coll.classifications
        )
        system = sy.AdmissibleSystem(
            sy.AdmissibleCollection(coll.names, coll.factors, coll.gamma, relabelled), (), 1, ()
        )
        minima = ex._behrstock_minima(system, random.Random(1), 0, ex.NIELSEN_TREE_LENGTH)
        with pytest.raises(UndefinedProjection, match="factors do not meet"):
            next(minima)


class TestDerivedConstants:
    def test_pentagon_constants(self):
        system = se.load_fixture("pentagon-f5")
        c = ex.derive_constants(system, seed=1, scan_samples=20)
        assert c["M_emp"] >= 1
        assert c["L_path"] >= 1
        assert c["s"] == 2
        assert c["K"] == 5 * c["M_emp"] + 3 * c["L_path"] + 2 * c["max_factor_dist"]

    def test_escalation_doubles(self):
        assert ex.escalate_power(13, None) == 16
        assert ex.escalate_power(1, None) == 1
        assert ex.escalate_power(5, 3) == 3  # explicit power wins
        assert ex.escalate_power(10 ** 9, None) == ex.MAX_POWER


class TestModes:
    def test_behrstock_scan(self):
        r = ex.run_experiment(
            ex.ExperimentConfig(
                mode="behrstock-scan", fixture="overlap-chain-f3", samples=10, seed=3
            )
        )
        assert r["verdict"] == "pass"
        assert r["aggregates"]["M_emp"] >= 1
        assert len(r["records"]) == 10

    def test_order_audit_passes(self):
        r = ex.run_experiment(
            ex.ExperimentConfig(
                mode="order-audit", fixture="pentagon-f5", samples=6, seed=7
            )
        )
        assert r["verdict"] == "pass"
        assert r["aggregates"]["met_precondition"] >= 1
        assert not r["violations"]

    def test_qie_sandwich_trivial(self):
        r = ex.run_experiment(
            ex.ExperimentConfig(
                mode="qie-sandwich", fixture="pentagon-f5", samples=30, seed=2
            )
        )
        assert r["verdict"] == "pass"

    def test_theorem9_reports_distinctly(self):
        # at the derived K the needed powers exceed the word-length budget;
        # the run must say so rather than fail
        r = ex.run_experiment(
            ex.ExperimentConfig(
                mode="theorem9-check", fixture="pentagon-f5", samples=5, seed=11
            )
        )
        assert r["verdict"] in ("pass", "power-insufficient")
        assert not r["violations"]
        assert r["aggregates"]["power"] >= r["aggregates"]["K"]

    def test_farey_crosscheck_small(self):
        r = ex.run_experiment(
            ex.ExperimentConfig(mode="farey-crosscheck", seed=5)
        )
        assert r["verdict"] == "pass"
        assert r["aggregates"]["mismatches"] == 0

    @pytest.mark.slow
    def test_interval_check_passes(self):
        r = ex.run_experiment(
            ex.ExperimentConfig(
                mode="interval-check", fixture="pentagon-f5", samples=3, seed=7
            )
        )
        assert r["verdict"] == "pass"
        for rec in r["records"]:
            assert rec["status"] == "checked"
            assert rec["checks"]["disjoint"]
        # pins the report bytes: sha256 of the canonical JSON
        assert hashlib.sha256(se.canonical_dumps(r).encode()).hexdigest() == (
            "0607bc312129bc79e2f4a6682ccf6482b1371e6abb52d53b2bb0a853a1dbde0c"
        )


class TestOrderAuditFrame:
    """order-audit measures (A_i, A_j) on (f_i^-m T, f_j^m T); the oracle
    measures (A_i, f_i^m A_j) on (T, f_i^m f_j^m T), where the order is
    defined.  M is pinned so the push power m is 4 or 5 at three samples."""

    @pytest.mark.parametrize("fixture", ["overlap-chain-f3", "pentagon-f5"])
    @pytest.mark.parametrize("M", [1, 2])
    def test_matches_direct_frame(self, monkeypatch, fixture, M):
        monkeypatch.setattr(ex, "measure_m_emp", lambda *_: M)
        seed = 4
        r = ex.run_experiment(
            ex.ExperimentConfig(mode="order-audit", fixture=fixture, samples=3, seed=seed)
        )
        m, K = r["aggregates"]["push_power"], r["aggregates"]["K"]
        assert m == M + 3
        system = se.load_fixture(fixture)
        coll = system.collection
        # replay the audit's draws
        rng = random.Random(seed)
        pairs = ex._overlapping_pairs(system)
        for rec in r["records"]:
            i, j = rng.choice(pairs)
            if rng.random() < 0.5:
                i, j = j, i
            T = ex.random_tree(rng, coll.factors[0].ambient, 4)
            assert rec["pair"] == [coll.names[i], coll.names[j]]
            want = direct_order_distances(system, i, j, T, m, M)
            assert (rec["d_A"], rec["d_B"]) == (want["d_A_T_T2"], want["d_B_T_T2"])
            if min(rec["d_A"], rec["d_B"]) < K:
                assert rec["status"] == "precondition-unmet"
                continue
            assert rec["status"] == "checked"
            T1 = pj.transform_marked(map_power(system.maps[i], -m), T)
            T2 = pj.transform_marked(map_power(system.maps[j], m), T)
            A, B = coll.factors[i], coll.factors[j]
            fresh = (pj.factor_shadow(A, B), pj.factor_shadow(B, A))
            assert asdict(pj.factor_order(A, B, T1, T2, M, fresh)) == want
            shadows = (coll.shadow(i, j), coll.shadow(j, i))
            assert asdict(pj.factor_order(A, B, T1, T2, M, shadows)) == want
            # the reversed pair reads the same four shadows in swapped roles
            ba_first = want["d_B_T_A"] >= M + 1
            if want["first_precedes_second"]:
                far0, near0, far1, near1 = "d_A_T_B", "d_B_T_A", "d_B_T2_A", "d_A_T2_B"
            else:
                far0, near0, far1, near1 = "d_B_T_A", "d_A_T_B", "d_A_T2_B", "d_B_T2_A"
            assert rec["checks"] == {
                "exactly_one_order": want["first_precedes_second"] != ba_first,
                "far_shadow_at_start": want[far0] >= M + 1,
                "near_shadow_at_start": want[near0] <= M,
                "far_shadow_at_end": want[far1] >= M + 1,
                "near_shadow_at_end": want[near1] <= M,
            }


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["behrstock-scan", "qie-sandwich"])
    def test_byte_identical_reports(self, mode):
        cfg = ex.ExperimentConfig(mode=mode, fixture="overlap-chain-f3", samples=8, seed=9)
        a = se.canonical_dumps(ex.run_experiment(cfg))
        b = se.canonical_dumps(ex.run_experiment(cfg))
        assert a == b

    def test_unknown_mode_is_typed(self):
        with pytest.raises(UnknownMode, match="unknown mode 'scan'"):
            ex.ExperimentConfig(mode="scan")

    @pytest.mark.parametrize(
        "kwargs, message",
        [(dict(samples=0), "samples must be >= 1, not 0"), (dict(power=0), "power must be >= 1, not 0")],
        ids=["samples", "power"],
    )
    def test_counts_below_one_are_typed(self, kwargs, message):
        with pytest.raises(NotPositive, match=message):
            ex.ExperimentConfig(mode="qie-sandwich", **kwargs)

    def test_seed_changes_report(self):
        r1 = ex.run_experiment(
            ex.ExperimentConfig(
                mode="behrstock-scan", fixture="overlap-chain-f3", samples=8, seed=1
            )
        )
        r2 = ex.run_experiment(
            ex.ExperimentConfig(
                mode="behrstock-scan", fixture="overlap-chain-f3", samples=8, seed=2
            )
        )
        assert r1["config"]["seed"] != r2["config"]["seed"]


class TestBfsOracle:
    def test_matches_continued_fractions_box8(self):
        from math import gcd

        from freefactor import farey

        dist = ex._bfs_distances((1, 0), 32)
        base = farey.farey_vertex(1, 0)
        for p in range(-8, 9):
            for q in range(-8, 9):
                if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
                    continue
                v = farey.farey_vertex(p, q)
                assert farey.farey_distance(base, v) == dist[(v.p, v.q)]
