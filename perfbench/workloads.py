"""The four benchmark workloads.

Each workload has ``setup()`` (imports and fixture loads, timed as set-up),
``make_input(state, seed, k)`` (the k-th request, a pure function of the
seed; built outside the timed region),
``request(state, inp)`` (the timed call into the library), ``check(state,
inp, out)`` (untimed; returns an error string or None) and ``summary(out)``
(a short text digest of the output, compared between traced and untraced
runs).  Optional: ``max_requests`` (a run ends after this many) and
``trace_targets(state)`` (extra ``(object, attribute, span name)`` to trace).
The library is used only through its public API.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import inspect
import itertools
import json
import random
from math import gcd

FIXTURES = ("overlap-chain-f3", "pentagon-f5", "pentagon-support-f6")


def _rng(seed: int, k: int) -> random.Random:
    # string seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{seed}:{k}")


def _stratified(seed: int, k: int, items, fixed_first: bool = False):
    """The k-th of a seeded shuffle of ``items``, reshuffled every cycle, so
    every run of a few cycles sees each item equally often.  With
    ``fixed_first`` the first cycle keeps the given order."""
    n = len(items)
    if fixed_first and k < n:
        return items[k]
    return _rng(seed, -1 - k // n).sample(items, n)[k % n]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _import(*names):
    return [importlib.import_module(f"freefactor.{n}") for n in names]


# --- scan -------------------------------------------------------------------


class Scan:
    """behrstock-scan experiments, two samples each, rotating the fixtures.

    Two samples per request smooth the per-sample cost (the random tree's
    length is uniform in 0..12), which keeps the tail steady across seeds.
    """

    name = "scan"
    samples = 2

    def setup(self):
        ex, se = _import("experiments", "serialize")
        # set-up covers import and fixture load; each request loads again
        for fx in FIXTURES:
            se.load_fixture(fx)
        return {"ex": ex}

    def make_input(self, state, seed, k):
        return {
            "fixture": FIXTURES[k % len(FIXTURES)],
            "seed": _rng(seed, k).randrange(2 ** 31),
            "samples": self.samples,
        }

    def request(self, state, inp):
        ex = state["ex"]
        cfg = ex.ExperimentConfig(mode="behrstock-scan", **inp)
        return ex.run_experiment(cfg)

    def check(self, state, inp, out):
        if out["verdict"] != "pass":
            return f"verdict {out['verdict']}"
        if len(out["records"]) != inp["samples"]:
            return f"{len(out['records'])} records for {inp['samples']} samples"
        return None

    def summary(self, out):
        return _sha(json.dumps(out, sort_keys=True))


# --- long-label -------------------------------------------------------------


class LongLabel:
    """The staggered interval-check path f_i^{-k}(R), k <= P, then f_j^k(R).

    Labels grow by the golden ratio squared per power (987 letters at 7,
    2,584 at 8).  (i, j) runs through the ordered overlapping pairs of both
    pentagon fixtures in a seeded order, so segments recur across requests
    and the project_tree cache gets real hits.  The first cycle, whose
    requests pay for the first visits and hold the tail, runs in a fixed
    order, so the tail does not depend on which pairs the seed puts first.
    """

    name = "long-label"
    fixtures = ("pentagon-f5", "pentagon-support-f6")
    power = 8

    def setup(self):
        se, pj, words, farey = _import("serialize", "projections", "words", "farey")
        systems = {fx: se.load_fixture(fx) for fx in self.fixtures}
        # every ordered overlapping pair of each fixture, both directions
        segments = [
            (fx, a, b)
            for fx, system in systems.items()
            for i, j, kind in system.collection.classifications if kind == "overlap"
            for a, b in ((i, j), (j, i))
        ]
        return {"pj": pj, "words": words, "farey": farey, "systems": systems,
                "segments": segments, "ref": {}}

    def make_input(self, state, seed, k):
        fx, i, j = _stratified(seed, k, state["segments"], fixed_first=True)
        return {"fixture": fx, "i": i, "j": j, "power": self.power}

    def request(self, state, inp):
        pj, words = state["pj"], state["words"]
        system = state["systems"][inp["fixture"]]
        fi, fj = system.maps[inp["i"]], system.maps[inp["j"]]
        A, B = system.collection.factors[inp["i"]], system.collection.factors[inp["j"]]
        P = inp["power"]
        R = pj.rose(A.ambient)
        trees = [pj.transform_marked(words.map_power(fi, -k), R) for k in range(P, -1, -1)]
        trees += [pj.transform_marked(words.map_power(fj, k), R) for k in range(1, P + 1)]
        path = pj.TreePath(tuple(trees))
        values = (
            path.step_bound(A),
            path.step_bound(B),
            pj.projection_distance(A, trees[0], trees[-1]),
            pj.projection_distance(B, trees[0], trees[-1]),
        )
        return values, trees

    def check(self, state, inp, out):
        # isometry invariance: f_i stabilizes A_i, so every step of the f_i
        # segment has d_{A_i}(T_k, T_{k+1}) = d_{A_i}(R, f_i R)
        pj = state["pj"]
        values, trees = out
        system = state["systems"][inp["fixture"]]
        A = system.collection.factors[inp["i"]]
        key = (inp["fixture"], inp["i"])
        if key not in state["ref"]:
            R = pj.rose(A.ambient)
            fR = pj.transform_marked(system.maps[inp["i"]], R)
            # uncached projections, so the reference does not fill the cache
            project = inspect.unwrap(pj.project_tree)
            state["ref"][key] = state["farey"].diameter(
                project(A, R).vertices | project(A, fR).vertices
            )
        want = state["ref"][key]
        steps = [
            pj.projection_distance(A, trees[k], trees[k + 1]) for k in range(inp["power"])
        ]
        if any(d != want for d in steps):
            return f"f_i segment steps {steps} differ from d(R, f_i R) = {want}"
        if values[0] != want:
            return f"step bound {values[0]} != {want}"
        return None

    def summary(self, out):
        return ",".join(map(str, out[0]))


# --- certify ----------------------------------------------------------------


class Certify:
    """Full verification of a conjugated three-factor sub-system of pentagon-f5.

    The triple is one of the five whose coincidence graph is a path, so every
    request classifies two disjoint pairs (Whitehead descent, double-coset
    search) and one overlapping pair, then checks the support certificates.
    The whole fixture takes over a second per request, too few requests for
    a steady median in one run.  Conjugating by three random transvections
    makes every request distinct.
    """

    name = "certify"
    fixture = "pentagon-f5"
    conjugator_length = 3

    def setup(self):
        se, sy, fc, words, ex = _import("serialize", "systems", "factors", "words", "experiments")
        return {"se": se, "sy": sy, "fc": fc, "words": words, "ex": ex,
                "base": se.load_fixture(self.fixture)}

    def make_input(self, state, seed, k):
        """The conjugated sub-system as JSON."""
        se, sy, fc, words, ex = (state[n] for n in ("se", "sy", "fc", "words", "ex"))
        base = state["base"]
        coll = base.collection
        ambient = coll.factors[0].ambient
        if "transvections" not in state:
            state["transvections"] = ex.nielsen_generators(ambient)
            state["paths"] = [
                t for t in itertools.combinations(coll.names, 3)
                if sum(coll.gamma.adjacent(a, b) for a, b in itertools.combinations(t, 2)) == 2
            ]
        rng = _rng(seed, k)
        keep = _stratified(seed, k, state["paths"])
        f = words.identity_map(ambient)
        for _ in range(self.conjugator_length):
            f = words.compose_map(rng.choice(state["transvections"]), f)
        f_inv = words.invert_automorphism(f)
        factors = tuple(fc.transport(f, A) for A in coll.factors)
        maps = tuple(words.compose_map(words.compose_map(f, g), f_inv) for g in base.maps)
        conj = sy.AdmissibleSystem(
            sy.AdmissibleCollection(coll.names, factors, coll.gamma, coll.classifications),
            maps, base.power, base.restriction_hyperbolic,
        )
        obj = se.system_to_json(conj)
        obj["gamma"]["vertices"] = list(keep)
        obj["gamma"]["edges"] = [e for e in obj["gamma"]["edges"] if set(e) <= set(keep)]
        obj["factors"] = [x for x in obj["factors"] if x["name"] in keep]
        obj["generators"] = [x for x in obj["generators"] if x["name"] in keep]
        return obj

    def request(self, state, obj):
        return state["se"].system_from_json(obj, verify=True)

    def check(self, state, obj, out):
        names = [x["name"] for x in obj["factors"]]
        if list(out.collection.names) != names:
            return f"verified factors {out.collection.names} != {names}"
        return None

    def summary(self, out):
        se = importlib.import_module("freefactor.serialize")
        return _sha(se.canonical_dumps(se.system_to_json(out)))


# --- queries ----------------------------------------------------------------

COMMANDS = ("normal-form", "syl-order", "farey-dist", "meet", "fold", "project", "dist",
            "complexity")


def _graph(rng, nv, density):
    vs = [f"v{i}" for i in range(nv)]
    es = [f"{a}-{b}" for x, a in enumerate(vs) for b in vs[x + 1:] if rng.random() < density]
    return ",".join(vs), ",".join(es)


def _raag_word(rng, vertices, syllables):
    vs = vertices.split(",")
    return " ".join(f"{rng.choice(vs)}^{rng.choice((1, -1, 2, -2, 3))}" for _ in range(syllables))


def _coprime(rng, bits):
    while True:
        p, q = rng.getrandbits(bits), rng.getrandbits(bits) + 1
        if gcd(p, q) == 1:
            return f"{p}/{q}"


def _free_word(rng, letters, length):
    return " ".join(rng.choice(letters) + rng.choice(("", "^-1")) for _ in range(length))


class Queries:
    """One CLI command per request, run in-process.

    Each request calls the click group's ``main(args, standalone_mode=False)``
    with standard output redirected to one reused buffer: what click's
    CliRunner does, minus its per-call stream isolation.  click caches a
    wrapper per output stream and the cache keeps each stream alive, so
    CliRunner's fresh streams leak about seven objects per call, and over a
    run the full garbage collections of that growing heap become the tail.
    """

    name = "queries"
    # a run ends after this many requests: with tens of thousands, the tail
    # (10 requests beyond) sat at p99.95, among the run's few full garbage
    # collections and rarest inputs, and moved by a third between seeds
    max_requests = 4000
    letters = "a,b,c"
    syllables = 6
    farey_bits = 200

    def setup(self):
        (cli,) = _import("cli")
        return {"cli": cli, "out": io.StringIO()}

    def trace_targets(self, state):
        return [(state["cli"].main, "main", "cli.invoke")]

    def make_input(self, state, seed, k):
        rng = _rng(seed, k)
        cmd = COMMANDS[k % len(COMMANDS)]
        if cmd in ("normal-form", "syl-order"):
            V, E = _graph(rng, rng.randint(5, 7), 0.5)
            return [cmd, "--vertices", V, "--edges", E, _raag_word(rng, V, self.syllables)]
        if cmd == "farey-dist":
            return [cmd, _coprime(rng, self.farey_bits), _coprime(rng, self.farey_bits)]
        if cmd == "complexity":
            V, E = _graph(rng, rng.randint(5, 9), 0.5)
            return [cmd, "--vertices", V, "--edges", E]
        if cmd == "fold":
            gens = ", ".join(_free_word(rng, "abc", rng.randint(4, 10)) for _ in range(3))
            return [cmd, "--letters", self.letters, gens]
        if cmd == "meet":
            return [cmd, "--letters", self.letters, _factor(rng), _factor(rng)]
        marking = _automorphism(rng)
        if cmd == "project":
            return [cmd, "--letters", self.letters, "--factor", _factor(rng), "--marking", marking]
        return [cmd, "--letters", self.letters, "--factor", _factor(rng),
                "--marking", marking, "--marking2", _automorphism(rng)]

    def request(self, state, args):
        """(exit code, output) of one command."""
        out = state["out"]
        out.seek(0)
        out.truncate()
        try:
            with contextlib.redirect_stdout(out):
                state["cli"].main.main(args, prog_name="freefactor", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
        return code, out.getvalue()

    def check(self, state, args, out):
        code, text = out
        if code != 0:
            return f"exit {code}: {text.strip()[:200]}"
        text = text.strip()
        again = None
        if args[0] == "normal-form" and text != "1":
            again = args[:-1] + [text]
        elif args[0] == "farey-dist":
            again = [args[0], args[2], args[1]]
        if again is not None:
            code2, other = self.request(state, again)
            if code2 != 0 or other.strip() != text:
                what = "normal-form is not idempotent" if args[0] == "normal-form" else \
                    "farey-dist is not symmetric"
                return f"{what}: {text!r} vs {other.strip()!r}"
        return None

    def summary(self, out):
        return _sha(f"{out[0]}:{out[1]}")


# automorphisms of F_3 = <a, b, c> as image triples: a product of up to three
# right transvections, written out with the letters as names
def _automorphism(rng):
    images = [["a"], ["b"], ["c"]]
    inv = {"a": "A", "b": "B", "c": "C", "A": "a", "B": "b", "C": "c"}
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(3), 2)
        tail = images[j] if rng.random() < 0.5 else [inv[x] for x in reversed(images[j])]
        images[i] = _reduce(images[i] + tail, inv)
    return ", ".join(_show(w) for w in images)


def _factor(rng):
    """Two images of one automorphism: generators of a rank-2 free factor."""
    images = _automorphism(rng).split(", ")
    i, j = rng.sample(range(3), 2)
    return f"{images[i]}, {images[j]}"


def _reduce(word, inv):
    out = []
    for x in word:
        if out and out[-1] == inv[x]:
            out.pop()
        else:
            out.append(x)
    return out


def _show(word):
    return " ".join(x if x.islower() else f"{x.lower()}^-1" for x in word) or ""


WORKLOADS = {w.name: w for w in (Scan(), LongLabel(), Certify(), Queries())}
