"""Each output check accepts the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import checks
from checks import CheckFailed
from rainbowgraphs import bounds, coupling, flow, graphs, substream


def _digraph(n: int, p: float, kappa: int, seed: int) -> graphs.ColouredDigraph:
    return graphs.sample_coloured_digraph(
        n, graphs.split_probability(p).p1, kappa, np.random.default_rng(seed)
    )


def test_replayed_sampler_matches_the_program():
    for n, p, kappa, seed in [(12, 0.9, 80, 3), (40, 0.2, 90, 4), (5, 0.0, 3, 5)]:
        g = _digraph(n, p, kappa, seed)
        own = checks.sample_arcs(n, checks.arc_probability(p), kappa, np.random.default_rng(seed))
        assert own.tolist() == [list(a) for a in g.arcs]


def test_trial_rng_is_the_documented_substream():
    a = checks.trial_rng(17, 3, "pipe-sample").random(4)
    b = substream(17, 3, "pipe-sample").random(4)
    assert a.tolist() == b.tolist()


@pytest.mark.parametrize("seed", range(12))
def test_matching_flow_equals_program_max_flow(seed):
    n, kappa, d = 10, 18 + seed, 1 + seed % 3
    g = _digraph(n, 0.35, kappa, seed)
    value, _ = flow.max_flow(flow.build_network(g, d))
    own = checks.colour_vertex_flow(n, kappa, d, np.asarray(g.arcs).reshape(-1, 3))
    assert own == value


def test_flow_record_check():
    checks.check_flow_record(True, 20, 20, 20)
    checks.check_flow_record(False, 19, 19, 20)
    with pytest.raises(CheckFailed):
        checks.check_flow_record(True, 21, 20, 20)  # flow value off by one
    with pytest.raises(CheckFailed):
        checks.check_flow_record(False, 20, 20, 20)  # success flag wrong


def _coupling(n=60, d=12, p=0.1, seed=3):
    out = coupling.couple(n, d, p, 0.5, np.random.default_rng(seed))
    assert out.success
    return out, n, d


def _coupling_args(out):
    inner = None if out.inner is None else [list(a) for a in out.inner.arcs]
    return [list(a) for a in out.d_out.arcs], list(out.counts), inner


def test_coupling_check_accepts_real_output():
    out, n, d = _coupling()
    checks.check_coupling(*_coupling_args(out), out.success, out.k_max, n, d)
    failed = coupling.couple(n, 2, 0.3, 0.5, np.random.default_rng(0))
    assert not failed.success
    checks.check_coupling(*_coupling_args(failed), False, failed.k_max, n, 2)


@pytest.mark.parametrize("corruption", [
    "head_is_tail", "repeated_head", "inner_not_in_d_out", "not_first_choices",
    "success_flag", "k_max",
])
def test_coupling_check_rejects_corruption(corruption):
    out, n, d = _coupling()
    d_out, counts, inner = _coupling_args(out)
    success, k_max = out.success, out.k_max
    v = next(v for v in range(n) if 0 < counts[v] < d)
    first = v * d  # arcs are grouped by tail in choice order
    if corruption == "head_is_tail":
        d_out[first][1] = v
    elif corruption == "repeated_head":
        d_out[first + 1][1] = d_out[first][1]
    elif corruption == "inner_not_in_d_out":
        chosen = {h for t, h, _ in d_out if t == v}
        i = next(i for i, a in enumerate(inner) if a[0] == v)
        inner[i][1] = next(h for h in range(n) if h != v and h not in chosen)
    elif corruption == "not_first_choices":
        i = next(i for i, a in enumerate(inner) if a[0] == v)
        inner[i][1] = d_out[first + counts[v]][1]  # a later choice, still in the d-out
    elif corruption == "success_flag":
        success = False
    else:
        k_max += 1
    with pytest.raises(CheckFailed):
        checks.check_coupling(d_out, counts, inner, success, k_max, n, d)


def _brute_rainbow_hamilton(n, edges):
    colour = {(min(u, v), max(u, v)): c for u, v, c in edges}
    for rest in itertools.permutations(range(1, n)):
        cyc = (0,) + rest
        cols = [colour.get((min(a, b), max(a, b))) for a, b in zip(cyc, cyc[1:] + cyc[:1])]
        if None not in cols and len(set(cols)) == n:
            return True
    return False


@pytest.mark.parametrize("seed", range(30))
def test_hamilton_search_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = 6 + seed % 2
    g = graphs.sample_coloured_graph(n, 0.6, 8, rng)
    cycle = checks.rainbow_hamilton_cycle(n, g.edges)
    assert (cycle is not None) == _brute_rainbow_hamilton(n, g.edges)
    if cycle is not None:
        assert checks.is_rainbow_hamilton_cycle(n, g.edges, cycle)


def _pipeline_case():
    """A host on 6 vertices holding the rainbow cycle 0-1-2-3-4-5."""
    n, d = 6, 2
    host = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 5, 5), (0, 5, 6), (0, 2, 1)]
    sample = np.array([[u, v, c] for u, v, c in host] + [[3, 0, 9]])
    return n, d, host, sample


def test_pipeline_verdict_check():
    n, d, host, sample = _pipeline_case()
    cycle = checks.rainbow_hamilton_cycle(n, host)
    ok = dict(n=n, d=d, own_flow=d * n, own_k_max=2, sampled=sample, host_edges=host)
    checks.check_pipeline_verdict("found", 2, cycle=cycle, **ok)
    checks.check_pipeline_verdict("extraction-failed", None, n, d, d * n - 1, 3, sample)
    checks.check_pipeline_verdict("coupling-failed", 3, n, d, d * n, 3, sample)
    with pytest.raises(CheckFailed):  # the host does have a rainbow cycle
        checks.check_pipeline_verdict("no-embedding", 2, cycle=cycle, **ok)
    with pytest.raises(CheckFailed):
        checks.check_pipeline_verdict("found", 2, cycle=None, **ok)
    with pytest.raises(CheckFailed):  # a non-rainbow "cycle"
        checks.check_pipeline_verdict("found", 2, cycle=[0, 2, 1, 3, 4, 5], **ok)
    with pytest.raises(CheckFailed):  # host edge absent from the sample
        bad = dict(ok, host_edges=host + [(1, 4, 7)])
        checks.check_pipeline_verdict("found", 2, cycle=cycle, **bad)
    with pytest.raises(CheckFailed):
        checks.check_pipeline_verdict("extraction-failed", None, n, d, d * n, 3, sample)
    with pytest.raises(CheckFailed):
        checks.check_pipeline_verdict("coupling-failed", 2, n, d, d * n, 2, sample)
    with pytest.raises(CheckFailed):  # k_max differs from the trial's own draws
        checks.check_pipeline_verdict("coupling-failed", 4, n, d, d * n, 3, sample)


def _theta(n, d, kappa, eps, p1):
    rep = bounds.theta(n, d, kappa, eps, p1)
    return rep, checks.log_theta_terms(n, d, kappa, eps, p1)


def test_theta_check():
    n, d, kappa, eps = 2000, 2, 6000, 0.5
    rep, terms = _theta(n, d, kappa, eps, graphs.split_probability(0.3).p1)
    checks.check_theta(rep.log_theta, rep.chernoff_term, *terms)
    with pytest.raises(CheckFailed):
        checks.check_theta(rep.log_theta * (1 + 1e-8), rep.chernoff_term, *terms)


def test_theta_check_includes_a_live_chernoff_term():
    rep, (log_sum_l, log_chernoff) = _theta(50, 1, 60, 0.5, 0.1)
    assert rep.chernoff_term > 0
    assert log_chernoff == pytest.approx(math.log(rep.chernoff_term), rel=1e-12)
    checks.check_theta(rep.log_theta, rep.chernoff_term, log_sum_l, log_chernoff)
    with pytest.raises(CheckFailed, match="below the log Chernoff term"):
        checks.check_theta(log_chernoff - 1.0, rep.chernoff_term, log_chernoff - 2.0, log_chernoff)


def test_theta_check_counts_an_underflowed_chernoff_term():
    # At n=10^4 the Chernoff term, about exp(-195), is a normal float; its
    # log is what the check compares with, float or not.
    rep, (log_sum_l, log_chernoff) = _theta(10**4, 2, 3 * 10**4, 0.5, 0.163)
    assert rep.chernoff_term > 0 and log_chernoff > log_sum_l
    checks.check_theta(rep.log_theta, rep.chernoff_term, log_sum_l, log_chernoff)
    # The program's result with that term dropped is the known fault ...
    with pytest.raises(checks.KnownFault):
        checks.check_theta(log_sum_l, 0.0, log_sum_l, log_chernoff)
    # ... and any other result below the term is plainly wrong.
    with pytest.raises(CheckFailed) as info:
        checks.check_theta(log_sum_l - 1.0, 0.0, log_sum_l, log_chernoff)
    assert not isinstance(info.value, checks.KnownFault)
