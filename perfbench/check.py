"""Independent answer checker.

The expected verdict of each job comes from its generator. Witnesses are
parsed from the CLI's stdout and checked with the benchmark's own marginal
code; nothing here calls into ``bagconsist``.
"""
from __future__ import annotations

import json

from workloads import NO, YES, marginal

EXIT_CODE = {YES: 0, NO: 1}
EXIT_EXHAUSTED = 3

OK, FAILED, UNDECIDED = "ok", "failed", "undecided"


def check(job, rec):
    """(status, reason) for one job result; a status of UNDECIDED means the
    oracle spent its budget, which is not a wrong answer."""
    if rec.get("exc"):
        return FAILED, "exception: " + rec["exc"].strip().splitlines()[-1]
    code = rec["code"]
    exhausted = job.get("oracle") and code == EXIT_EXHAUSTED
    if not exhausted and code != EXIT_CODE[job["expect"]]:
        return FAILED, "exit code %r, expected %d" % (code, EXIT_CODE[job["expect"]])
    try:
        head, body = _split(rec["out"])
        if exhausted:
            if body["global"] == "unknown-cyclic" and body["oracle_exhausted"]:
                return UNDECIDED, "oracle budget spent"
            return FAILED, "exit 3 without an exhausted oracle report"
        reason = VERBS[job["verb"]](job, head, body)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reason = "unparsable output: %r" % (exc,)
    return (FAILED, reason) if reason else (OK, "")


def tally(jobs, recs):
    """The failed (job index, reason) pairs among the results, and the set
    of jobs that ended undecided."""
    failed, undecided = [], set()
    for rec in recs:
        status, reason = check(jobs[rec["i"]], rec)
        if status == FAILED:
            failed.append((rec["i"], reason))
        elif status == UNDECIDED:
            undecided.add(rec["i"])
    return failed, undecided


def _split(out):
    """(verdict line, JSON report); ``pairwise`` prints the report alone."""
    if out.startswith("{"):
        return "", json.loads(out)
    head, _, rest = out.partition("\n")
    return head.strip(), json.loads(rest)


def _check_classify(job, head, body):
    if job["expect"] == NO:
        if head != "cyclic":
            return "verdict %r, expected cyclic" % head
        if not body["bad_witness"]["W"]:
            return "empty bad witness"
        return None
    if head != "acyclic":
        return "verdict %r, expected acyclic" % head
    return _join_tree_error(job["edges"], body["join_tree"])


def _join_tree_error(edges, tree):
    """None iff the tree links the schema's edges and every attribute's
    edges form a connected subtree."""
    nodes = [sorted(n) for n in tree["nodes"]]
    if nodes != edges:
        return "join tree nodes differ from the schema's edges"
    links = [tuple(l) for l in tree["links"]]
    if len(links) != max(len(nodes) - 1, 0):
        return "join tree has %d links for %d nodes" % (len(links), len(nodes))
    adj = {i: set() for i in range(len(nodes))}
    for a, b in links:
        adj[a].add(b)
        adj[b].add(a)
    for attr in {a for n in nodes for a in n} | {None}:
        holders = set(adj) if attr is None else {
            i for i, n in enumerate(nodes) if attr in n}
        seen, stack = set(), [min(holders)]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend((adj[u] & holders) - seen)
        if seen != holders:
            return "join tree disconnects %s" % (attr or "its nodes")
    return None


def _check_pairwise(job, head, body):
    if body["consistent"] != (job["expect"] == YES):
        return "consistent=%r, expected %s" % (body["consistent"], job["expect"])
    if sorted(body["inconsistent_pairs"]) != job["pairs"]:
        return "inconsistent pairs %r, expected %r" % (
            body["inconsistent_pairs"], job["pairs"])
    return None


def _check_global(job, head, body):
    if body["global"] != job["expect"]:
        return "verdict %r, expected %s" % (body["global"], job["expect"])
    pairs = body["pairwise"]["inconsistent_pairs"]
    if sorted(pairs) != job["pairs"]:
        return "inconsistent pairs %r, expected %r" % (pairs, job["pairs"])
    if job["expect"] == NO:
        return None
    return witness_error(job["bags"], body["witness"], job["acyclic"])


def witness_error(bags, wjson, acyclic):
    """None iff the witness reproduces every bag; acyclic witnesses must
    also meet the chaining bound sum |supp B_i| - (m - 1)."""
    schema = tuple(wjson["schema"])
    union = sorted({a for b in bags for a in b[0]})
    if list(schema) != union:
        return "witness schema %r, expected %r" % (schema, union)
    entries = {}
    for t in wjson["tuples"]:
        mult = int(t["mult"])
        if mult <= 0:
            return "non-positive witness multiplicity"
        entries[tuple(str(t["values"][a]) for a in schema)] = mult
    for i, bag in enumerate(bags):
        if marginal((schema, entries), bag[0])[1] != bag[1]:
            return "witness marginal differs from bag %d" % i
    if acyclic:
        bound = sum(len(b[1]) for b in bags) - (len(bags) - 1)
        if len(entries) > bound:
            return "witness support %d above chaining bound %d" % (
                len(entries), bound)
    return None


VERBS = {"classify": _check_classify, "pairwise": _check_pairwise,
         "global": _check_global}
