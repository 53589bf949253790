"""Digests of sampler, extraction and pipeline outputs, recorded before
the samplers and the extraction were made to sort only what they read,
and before the pipeline drew its truncation counts first.

The golden CLI fixtures run at n <= 30 and `trial_lemma4.jsonl` records
only k_max and the inner arc count, so neither pins the d-out heads or
the permuted tie-break at n in the hundreds.  These digests do: each is
the SHA-256 of the output's int64 arc rows, and any change of head, order
or draw changes it.  The pipeline digest covers 400 trials with all four
verdicts, where the golden pipeline fixtures hold 24 trials each.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from rainbowgraphs.flow import extract_via_permutation
from rainbowgraphs.graphs import sample_coloured_digraph, sample_d_out
from rainbowgraphs.harness import ExperimentConfig, records_to_jsonl, run_trials
from rainbowgraphs.rng import substream


def digest(arcs) -> str:
    return hashlib.sha256(arcs.tobytes()).hexdigest()


@pytest.mark.parametrize(
    "seed, want",
    [
        (0, "59de2abd7bf551dd257ef811f8240da3279f2e30f0753ca1a904ac16fc2c3724"),
        (1, "75efc902f5b9f614a125fef09eca5ebbd341b381d5fc7e6a5ba8d324db40ec06"),
        (2, "3cd911e859801026323ab066db8d485b004183b0baf5a04d16210699a0a8b2f7"),
        (3, "f088a7a2e78bc113007c8bf9fed7245b3e71ba8e96e32bfec52c4fcf774c759f"),
    ],
)
def test_sample_d_out_at_n1000(seed, want):
    assert digest(sample_d_out(1000, 55, substream(seed)).arcs) == want


# kappa close to d*n, so 11-23% of the (colour, tail) pairs have several
# heads and the permuted tie-break decides many arcs
@pytest.mark.parametrize(
    "seed, d, kappa, p1, want",
    [
        (0, 1, 400, 0.5, "dd737bd13e4adf25d54c0817d46a448bd6561e13944b1fa373b9cf91a856e963"),
        (1, 2, 820, 0.5, "8d766ba622539f94b813ba131ac0f295a7c45b0e9d50fa6467e0c073e895b995"),
        (2, 1, 420, 0.3, "e83409a8d74b500173f142079bfda297b729976eb16bb95df261e2a633dbab4c"),
        (3, 2, 900, 0.6, "dd86a19897ad040e3d9f6aa6bf702b68230870c23b84865e60dfd6069c685117"),
    ],
)
def test_extract_via_permutation_at_n400(seed, d, kappa, p1, want):
    d_in = sample_coloured_digraph(400, p1, kappa, substream(seed, "inst"))
    out = extract_via_permutation(d_in, d, substream(seed, "perm"))
    assert out is not None and digest(out.digraph.arcs) == want


def test_pipeline_jsonl_at_n12():
    config = ExperimentConfig(
        n=12, p=0.9, kappa=80, eps=1.0, d=3, trials=400, seed=0, mode="pipeline",
        target_family="cycle", target_size=12,
    )
    records = run_trials(config)
    assert Counter(r.pipeline_verdict for r in records) == {
        "no-embedding": 208, "coupling-failed": 171, "found": 14, "extraction-failed": 7,
    }
    jsonl = records_to_jsonl(records).encode()
    assert hashlib.sha256(jsonl).hexdigest() == (
        "0a444839ded6b78184b9dadd80f29b53207eda2b1d7ddd272bfd2abc58f0e9de"
    )
