"""Self-test of the benchmark's answer checker, tracer and generators.

    python3 perfbench/selftest.py

Runs in-process against the checkout's ``src`` and exits non-zero on the
first failed assertion.
"""
from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import COUNTED, SPANS, Tracer  # noqa: E402

from bagconsist import bags, cli  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def predicted_layers(why):
    """{"loads": [...], "bypasses": [...]}: the span names a workload's
    sentence in BENCHMARK.json lists after "; loads" and "; bypasses"."""
    out = {"loads": [], "bypasses": []}
    for part in why.split("; ")[1:]:
        key, *names = part.split()
        out[key] = names
    return out


def result(argv):
    code, out, err, exc, dt = worker.run_job(argv)
    return {"i": 0, "code": code, "out": out, "err": err, "exc": exc, "s": dt}


def test_failures_count(tmp):
    """A corrupted witness, a flipped verdict and an exception raised inside
    cli.run each count as failed; a spent oracle budget does not."""
    pool = workloads.build("acyclic-witness", 1, tmp)
    job = next(j for j in pool.jobs if j["expect"] == workloads.YES)
    good = result(job["argv"])
    assert check.check(job, good)[0] == check.OK, check.check(job, good)

    head, _, body = good["out"].partition("\n")
    report = json.loads(body)
    tup = report["witness"]["tuples"][0]
    tup["mult"] = str(int(tup["mult"]) + 1)
    corrupted = dict(good, out=head + "\n" + json.dumps(report))

    report = json.loads(body)
    report["global"] = "no"
    flipped = dict(good, code=1, out="globally inconsistent\n" + json.dumps(report))

    original = cli.global_consistent

    def boom(*args, **kwargs):
        raise RuntimeError("injected fault")
    cli.global_consistent = boom
    try:
        crashed = result(job["argv"])
    finally:
        cli.global_consistent = original
    assert crashed["exc"] and "injected fault" in crashed["exc"]

    recs = [good, corrupted, flipped, crashed]
    jobs = [job] * len(recs)
    for i, rec in enumerate(recs):
        rec["i"] = i
    failed, undecided = check.tally(jobs, recs)
    assert [i for i, _ in failed] == [1, 2, 3], failed
    assert not undecided

    cyc = workloads.build("cyclic-oracle", 1, tmp)
    hard = cyc.jobs[0]  # a dense n = 7 table
    assert hard["oracle"] and hard["expect"] == workloads.YES
    argv = list(hard["argv"])
    argv[argv.index("--budget-nodes") + 1] = "2000"
    spent = result(argv)
    assert spent["code"] == check.EXIT_EXHAUSTED, spent
    assert check.check(hard, spent)[0] == check.UNDECIDED


def test_tracer(tmp):
    """Each workload's predicted layers run and its bypassed ones do not;
    the self times of a job add up to its time; originals come back."""
    before = {(mod, cls, attr): _lookup(mod, cls, attr)
              for _, mod, cls, attr in SPANS + COUNTED}
    for w in load_spec()["workloads"]:
        name, spec = w["name"], predicted_layers(w["why"])
        os.makedirs(os.path.join(tmp, name))
        pool = workloads.build(name, 2, os.path.join(tmp, name))
        with Tracer() as tracer:
            for job in pool.jobs[:8]:
                start = tracer.self_total()
                rec = result(job["argv"])
                assert check.check(job, rec)[0] != check.FAILED, (name, rec)
                spent = tracer.self_total() - start
                assert abs(spent - rec["s"]) <= 0.02 * rec["s"] + 1e-3, (
                    name, spent, rec["s"])
        for layer in spec["loads"]:
            assert tracer.stats[layer][0] > 0, (name, layer)
        for layer in spec["bypasses"]:
            assert tracer.stats[layer][0] == 0, (name, layer)
    after = {key: _lookup(*key) for key in before}
    assert after == before, "tracer left a wrapper installed"
    assert bags.Bag.marginal is before[("bags", "Bag", "marginal")]


def _lookup(mod, cls, attr):
    owner = sys.modules["bagconsist." + mod]
    return getattr(owner, attr) if cls is None else getattr(owner, cls).__dict__[attr]


def test_generators(tmp):
    """The same seed gives the same files; another seed other files."""
    a, b, c = (os.path.join(tmp, x) for x in "abc")
    for d, seed in ((a, 3), (b, 3), (c, 4)):
        os.makedirs(d)
        workloads.build("wide-schema", seed, d)
    names = sorted(os.listdir(a))
    assert filecmp.cmpfiles(a, b, names, shallow=False)[0] == names
    assert not filecmp.cmpfiles(a, c, names, shallow=False)[0]


def test_spec():
    """BENCHMARK.json names the workloads the code generates, predicts
    layers the tracer times, and lists metrics the code produces."""
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    spans = {n for n, *_ in SPANS}
    for w in spec["workloads"]:
        layers = predicted_layers(w["why"])
        assert layers["loads"] and layers["bypasses"], w["name"]
        assert spans.issuperset(layers["loads"] + layers["bypasses"]), w["name"]
    produced = {n + s for n, *_ in SPANS for s in (".calls", ".self_s")}
    produced |= set(Tracer().counts) | {"trace.overhead_s"}
    missing = {m["name"] for m in spec["per_layer"]} - produced
    assert not missing, missing


def main():
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=work)
    try:
        for test in (test_spec, test_generators, test_failures_count,
                     test_tracer):
            sub = os.path.join(tmp, test.__name__)
            os.makedirs(sub)
            test(*([sub] if test.__code__.co_argcount else []))
            print("ok  " + test.__name__)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
