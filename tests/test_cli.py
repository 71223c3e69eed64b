import hashlib
import json
import random

import pytest
from click.testing import CliRunner

from freefactor import experiments as ex, raag, serialize as se
from freefactor.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


class TestWordCommands:
    def test_normal_form(self):
        r = run("normal-form", "--vertices", "a,b,c", "--edges", "a-b", "b a b^-1 c")
        assert r.exit_code == 0
        assert r.output.strip() == "a c"

    def test_syl_order(self):
        r = run("syl-order", "--vertices", "a,b,c", "--edges", "a-b", "c a b")
        assert r.exit_code == 0
        assert "c < a" in r.output and "c < b" in r.output

    def test_syl_order_commuting(self):
        r = run("syl-order", "--vertices", "a,b", "--edges", "a-b", "a b")
        assert "(no forced order)" in r.output

    def test_syl_order_normalizes_once(self, monkeypatch):
        calls = []
        normalize = raag.normalize
        monkeypatch.setattr(raag, "normalize", lambda g, w: calls.append(1) or normalize(g, w))
        r = run("syl-order", "--vertices", "a,b,c", "--edges", "a-b", "c a^2 b c^-1 a")
        assert r.exit_code == 0
        assert len(calls) == 1


class TestGraphCommands:
    def test_fold(self):
        r = run("fold", "--letters", "a,b", "a b a^-1, b b")
        assert r.exit_code == 0
        assert "rank: 2" in r.output

    def test_intersect_trivial(self):
        r = run("intersect", "--letters", "a,b", "a", "a b")
        assert "trivial intersection" in r.output

    def test_meet(self):
        r = run("meet", "--letters", "a,b,c", "a,b", "a, b c")
        assert r.exit_code == 0
        assert "< a >" in r.output

    def test_overlap(self):
        r = run("overlap", "--letters", "a,b,c", "a,b", "a, b c")
        assert "rank 3" in r.output

    def test_complexity_pentagon(self):
        r = run(
            "complexity",
            "--vertices", "a,b,c,d,e",
            "--edges", "a-b,b-c,c-d,d-e,e-a",
        )
        assert r.output.strip() == "6"

    def test_support_graph(self):
        r = run("support-graph", "--vertices", "a,b", "--edges", "a-b")
        assert "ambient rank: 4" in r.output


class TestProjectionCommands:
    def test_farey_dist(self):
        r = run("farey-dist", "1/0", "13/8")
        assert r.output.strip() == "3"

    def test_project_rose(self):
        r = run("project", "--letters", "a,b,c", "--factor", "a,b")
        assert set(r.output.split()) == {"0/1", "1/0"}

    def test_dist_moved_tree(self):
        r = run(
            "dist",
            "--letters", "a,b,c",
            "--factor", "a,b",
            "--marking2", "a a b, a b, c",
        )
        assert r.output.strip() == "2"


class TestRefusals:
    """Bad input ends a command with one line on stderr and exit code 2; a
    system that ``verify-system`` cannot certify, with one ``FAIL:`` line on
    stdout and exit code 1."""

    @pytest.fixture
    def no_experiment(self, monkeypatch):
        def never(cfg):
            raise AssertionError("the experiment started")

        monkeypatch.setattr(ex, "run_experiment", never)

    def refused(self, *args):
        r = run(*args)
        assert r.exit_code == 2
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        return r.stderr

    def failed_verify(self, path):
        r = run("verify-system", str(path))
        assert r.exit_code == 1
        assert r.stderr == ""
        assert r.stdout.startswith("FAIL: ")
        assert len(r.stdout.splitlines()) == 1
        return r.stdout

    def test_verify_system_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert "as JSON: " in self.failed_verify(bad)

    def test_verify_system_not_text(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert "as JSON: " in self.failed_verify(bad)

    def test_verify_system_directory(self, tmp_path):
        assert "Is a directory" in self.failed_verify(tmp_path)

    def test_verify_system_boolean_power(self, tmp_path):
        obj = json.loads(se.fixture_path("overlap-chain-f3").read_text())
        obj["power"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert self.failed_verify(bad) == "FAIL: system.power: expected int, got bool\n"

    def test_run_out_unwritable(self, tmp_path):
        out = tmp_path / "missing" / "r.json"
        err = self.refused("run", "--mode", "qie-sandwich", "--samples", "1", "--out", str(out))
        assert err == f"error: cannot write {out}: No such file or directory\n"

    def test_run_out_refused_before_the_run(self, tmp_path, no_experiment):
        out = tmp_path / "missing" / "r.json"
        err = self.refused("run", "--mode", "interval-check", "--samples", "20", "--out", str(out))
        assert err == f"error: cannot write {out}: No such file or directory\n"

    def test_run_negative_samples(self, no_experiment):
        err = self.refused("run", "--mode", "qie-sandwich", "--samples", "-3")
        assert err == "error: samples must be >= 1, not -3\n"

    def test_run_zero_samples(self, no_experiment):
        err = self.refused("run", "--mode", "qie-sandwich", "--samples", "0")
        assert err == "error: samples must be >= 1, not 0\n"

    @pytest.mark.parametrize("power", ["0", "-2"])
    def test_run_power_below_one(self, no_experiment, power):
        err = self.refused("run", "--mode", "qie-sandwich", "--power", power)
        assert err == f"error: power must be >= 1, not {power}\n"

    def test_shipped_fixture_not_shadowed(self, tmp_path, monkeypatch):
        # a shipped name is the fixture; ./NAME is the directory beside it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pentagon-f5").mkdir()
        r = run("verify-system", "pentagon-f5")
        assert r.exit_code == 0
        assert r.stdout.startswith("OK: ") and len(r.stdout.splitlines()) == 1
        assert "Is a directory" in self.failed_verify("./pentagon-f5")

    def test_meet_rank_one(self):
        assert "rank 1" in self.refused("meet", "--letters", "a,b,c", "a", "b")

    def test_project_non_factor(self):
        err = self.refused("project", "--letters", "a,b,c", "--factor", "a a, b")
        assert "not a free factor" in err

    def test_dist_non_factor(self):
        err = self.refused(
            "dist", "--letters", "a,b,c", "--factor", "a b a^-1 b^-1, c", "--marking2", "a b, b, c"
        )
        assert "not a free factor" in err

    def test_project_rank_three(self):
        assert "rank 3" in self.refused("project", "--letters", "a,b,c", "--factor", "a, b, c")

    def test_project_conjugated_factor(self):
        r = run("project", "--letters", "a,b,c", "--factor", "c a c^-1, c b c^-1")
        assert r.exit_code == 0
        assert set(r.output.split()) == {"0/1", "1/0"}

    def test_normal_form_duplicate_vertex(self):
        assert "duplicate vertex" in self.refused("normal-form", "--vertices", "a,a", "a")

    def test_normal_form_loop(self):
        assert "loop" in self.refused("normal-form", "--vertices", "a,b", "--edges", "a-a", "a b")

    def test_syl_order_unknown_endpoint(self):
        err = self.refused("syl-order", "--vertices", "a,b", "--edges", "a-z", "a b")
        assert "endpoint" in err

    def test_syl_order_bad_exponent(self):
        err = self.refused("syl-order", "--vertices", "a,b", "--edges", "a-b", "a^x b")
        assert "bad exponent" in err

    def test_fold_bad_exponent(self):
        assert "bad exponent" in self.refused("fold", "--letters", "a,b", "a^x b, b")

    def test_fold_repeated_letter(self):
        assert "letter name 'a' repeats" in self.refused("fold", "--letters", "a,a", "a")

    def test_meet_repeated_letter(self):
        err = self.refused("meet", "--letters", "a,b,a", "a,b", "a")
        assert "letter name 'a' repeats" in err

    def test_empty_vertex_name(self):
        err = self.refused("complexity", "--vertices", "a,,b", "--edges", "")
        assert err == "error: vertex name '' is empty or holds whitespace or '^'\n"

    def test_empty_letter_name(self):
        err = self.refused("fold", "--letters", "a,,b", "a")
        assert err == "error: letter name '' is empty or holds whitespace or '^'\n"

    def test_letter_name_with_space(self):
        err = self.refused("fold", "--letters", "a b,c", "c")
        assert err == "error: letter name 'a b' is empty or holds whitespace or '^'\n"

    def test_vertex_named_one(self):
        err = self.refused("normal-form", "--vertices", "1,b", "--edges", "", "1")
        assert err == "error: vertex name '1' prints as the identity\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["farey-dist", "-1/2", "1/1"], "No such option '-1'."),
            (["fold", "--letters", "a"], "Missing argument 'GENS'."),
            (["run", "--mode", "qie-sandwich", "--seed", "x"],
             "Invalid value for '--seed': 'x' is not a valid integer."),
        ],
    )
    def test_usage_error(self, args, message):
        assert self.refused(*args) == f"error: {message}\n"

    def test_support_graph_one_vertex(self):
        err = self.refused("support-graph", "--vertices", "a")
        assert err == "error: a support graph needs at least two vertices\n"

    def test_support_graph_refusal_survives_optimize(self, run_optimized):
        out = run_optimized(
            "from click.testing import CliRunner\n"
            "from freefactor.cli import main\n"
            "r = CliRunner().invoke(main, ['support-graph', '--vertices', 'a'])\n"
            "print(r.exit_code, repr(r.stderr), repr(r.stdout))\n"
        )
        assert out == "2 'error: a support graph needs at least two vertices\\n' ''\n"

    def test_farey_dist_malformed_vertex(self):
        for u in ("1/x", "1", "1/2/3"):
            assert "is not a vertex p/q" in self.refused("farey-dist", u, "1/1")

    def test_farey_dist_refusal_survives_optimize(self, run_optimized):
        out = run_optimized(
            "from click.testing import CliRunner\n"
            "from freefactor.cli import main\n"
            "for u in ('1/x', '1'):\n"
            "    r = CliRunner().invoke(main, ['farey-dist', u, '1/1'])\n"
            "    print(r.exit_code, repr(r.stderr), repr(r.stdout))\n"
        )
        assert out == (
            "2 \"error: '1/x' is not a vertex p/q\\n\" ''\n"
            "2 \"error: '1' is not a vertex p/q\\n\" ''\n"
        )

    def test_alphabet_refusal_survives_optimize(self, run_optimized):
        out = run_optimized(
            "from click.testing import CliRunner\n"
            "from freefactor.cli import main\n"
            "r = CliRunner().invoke(main, ['fold', '--letters', 'a,a', 'a'])\n"
            "print(r.exit_code, repr(r.stderr), repr(r.stdout))\n"
        )
        assert out == "2 \"error: letter name 'a' repeats in ('a', 'a')\\n\" ''\n"

    def test_graph_refusal_survives_optimize(self, run_optimized):
        out = run_optimized(
            "from click.testing import CliRunner\n"
            "from freefactor.cli import main\n"
            "for edges in ('a-a', 'a-z'):\n"
            "    r = CliRunner().invoke(main, ['normal-form', '--vertices', 'a,b', '--edges', edges, 'a'])\n"
            "    print(r.exit_code, len(r.stderr.splitlines()), repr(r.stdout))\n"
        )
        assert out == "2 1 ''\n2 1 ''\n"

    def test_meet_refusal_survives_optimize(self, run_optimized):
        out = run_optimized(
            "from click.testing import CliRunner\n"
            "from freefactor.cli import main\n"
            "r = CliRunner().invoke(main, ['meet', '--letters', 'a,b,c', 'a', 'b'])\n"
            "print(r.exit_code, len(r.stderr.splitlines()), repr(r.stdout))\n"
        )
        assert out == "2 1 ''\n"


class TestSystemCommands:
    def test_verify_fixture(self):
        r = run("verify-system", "overlap-chain-f3")
        assert r.exit_code == 0
        assert r.output.startswith("OK")

    def test_verify_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        obj = json.loads(se.fixture_path("overlap-chain-f3").read_text())
        obj["generators"][0]["images"][0] = "a a"  # not injective with the rest
        bad.write_text(json.dumps(obj))
        r = run("verify-system", str(bad))
        assert r.exit_code == 1
        assert "FAIL" in r.output

    def test_run_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        r = run(
            "run",
            "--mode", "farey-crosscheck",
            "--samples", "5",
            "--seed", "3",
            "--out", str(out),
        )
        assert r.exit_code == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "pass"
        assert report["config"]["seed"] == 3

    @pytest.mark.parametrize(
        "args, code, verdict",
        [
            (["--mode", "farey-crosscheck", "--samples", "3"], 0, "pass"),
            (["--mode", "theorem9-check", "--power", "2", "--samples", "5"], 1, "fail"),
            (["--mode", "theorem9-check", "--samples", "2"], 3, "power-insufficient"),
        ],
    )
    def test_run_exit_code_by_verdict(self, tmp_path, args, code, verdict):
        out = tmp_path / "report.json"
        r = run("run", *args, "--seed", "1", "--out", str(out))
        assert r.exit_code == code
        assert r.output == f"{verdict}: report written to {out}\n"
        assert json.loads(out.read_text())["verdict"] == verdict

    def test_run_error_exits_2(self):
        r = run("run", "--mode", "behrstock-scan", "--fixture", "no-such-fixture", "--samples", "1")
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr == "error: no shipped fixture named 'no-such-fixture'\n"

    def test_run_stdout_verdict_gates_exit(self):
        r = run(
            "run",
            "--mode", "behrstock-scan",
            "--fixture", "overlap-chain-f3",
            "--samples", "4",
        )
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"] == "pass"


def _free_word(rng, length):
    return " ".join(rng.choice("abc") + rng.choice(("", "^-1")) for _ in range(length))


def _factor_gens(rng):
    """Two images of a product of random transvections of <a, b, c>,
    conjugated at random: generators of a rank-2 free factor."""
    images = [["a"], ["b"], ["c"]]
    for _ in range(rng.randint(1, 6)):
        i, j = rng.sample(range(3), 2)
        tail = images[j] if rng.random() < 0.5 else [x.swapcase() for x in reversed(images[j])]
        word = []
        for x in images[i] + tail:
            if word and word[-1] == x.swapcase():
                word.pop()
            else:
                word.append(x)
        images[i] = word
    if rng.random() < 0.3:
        c = rng.choice("abcABC")
        images = [[c] + im + [c.swapcase()] for im in images]
    show = lambda im: " ".join(x if x.islower() else f"{x.lower()}^-1" for x in im)
    return ", ".join(show(im) for im in rng.sample(images, 2))


class TestFoldNumberingOutputs:
    """``intersect``, ``meet`` and ``overlap`` print bases read at each
    pullback component's least product state, so their stdout depends on
    ``stallings.fold``'s vertex numbering; the digest pins it."""

    DIGEST = "269c9954d8bce1b4486211074cd101108a27b507ab9858489c356f3c82485c18"

    def test_outputs_pinned(self):
        h = hashlib.sha256()
        for k in range(300):
            rng = random.Random(f"fold-numbering:{k}")
            first, second = _factor_gens(rng), _factor_gens(rng)
            if k % 3 == 0:  # subgroups that need not be free factors
                second = ", ".join(_free_word(rng, rng.randint(1, 5)) for _ in range(2))
            for cmd in ("intersect", "meet", "overlap"):
                r = run(cmd, "--letters", "a,b,c", first, second)
                h.update(f"{cmd} {first} | {second} -> {r.exit_code}\n{r.stdout}".encode())
        assert h.hexdigest() == self.DIGEST
