"""Node-set scores are remembered per frozen set, and the memo is invisible.

``Interconnect.aggregate_bandwidth`` and ``mean_pairwise_latency_ns`` are
pure functions of a node set, so the interconnect computes both once per
set.  What has to hold: every answer equals a recomputation from the link
table, however the set is spelled, and a topology that has answered every
question pickles, compares and fingerprints exactly like one that has
answered none, in this process and in one whose string hashes are salted
differently.
"""

import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.topology.presets import PRESETS


def _subsets(n_nodes):
    return [
        combo
        for size in range(1, n_nodes + 1)
        for combo in itertools.combinations(range(n_nodes), size)
    ]


def _bandwidth(interconnect, nodes):
    """Sum of pairwise effective bandwidths, from the link table."""
    return sum(
        interconnect._effective[frozenset((a, b))]
        for a, b in itertools.combinations(sorted(nodes), 2)
    )


def _latency(interconnect, nodes):
    """Mean latency over ordered node pairs, same-node pairs included."""
    if len(nodes) == 1:
        return interconnect.local_latency_ns
    total = 0.0
    count = 0
    for a in nodes:
        for b in nodes:
            total += interconnect.latency_ns(a, b)
            count += 1
    return total / count


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_memo_equals_recomputation_for_every_subset(preset):
    interconnect = PRESETS[preset]().interconnect
    subsets = _subsets(interconnect.n_nodes)
    for _ in range(2):  # cold, then served from the memo
        for nodes in subsets:
            assert interconnect.aggregate_bandwidth(nodes) == _bandwidth(
                interconnect, nodes
            )
            assert interconnect.mean_pairwise_latency_ns(nodes) == _latency(
                interconnect, nodes
            )
    assert len(interconnect._node_set_scores) == 2**interconnect.n_nodes - 1


def test_one_entry_per_set_however_it_is_spelled():
    interconnect = PRESETS["amd"]().interconnect
    spellings = ([2, 0, 5], (0, 2, 5), frozenset((5, 2, 0)), iter([5, 0, 2, 2]))
    bandwidths = {interconnect.aggregate_bandwidth(s) for s in spellings}
    assert bandwidths == {_bandwidth(interconnect, (0, 2, 5))}
    assert list(interconnect._node_set_scores) == [frozenset((0, 2, 5))]
    with pytest.raises(ValueError, match="unknown node"):
        interconnect.aggregate_bandwidth([0, 9])
    with pytest.raises(ValueError, match="empty"):
        interconnect.mean_pairwise_latency_ns([])
    assert list(interconnect._node_set_scores) == [frozenset((0, 2, 5))]


def _warm(machine):
    interconnect = machine.interconnect
    for nodes in _subsets(interconnect.n_nodes):
        interconnect.aggregate_bandwidth(nodes)
        interconnect.mean_pairwise_latency_ns(nodes)
    assert interconnect._node_set_scores
    return machine


#: Runs in the child: build every preset cold and warm, send back what
#: pickling, comparing and fingerprinting each of them produced.
CHILD = """
import itertools, pickle, sys
from repro.topology.presets import PRESETS

out = {}
for name in sorted(PRESETS):
    cold, warm = PRESETS[name](), PRESETS[name]()
    for size in range(1, warm.n_nodes + 1):
        for nodes in itertools.combinations(range(warm.n_nodes), size):
            warm.interconnect.aggregate_bandwidth(nodes)
            warm.interconnect.mean_pairwise_latency_ns(nodes)
    out[name] = {
        "cold": pickle.dumps(cold),
        "warm": pickle.dumps(warm),
        "fingerprints": (cold.fingerprint(), warm.fingerprint()),
        "equal": (warm == warm, warm == cold, cold == PRESETS[name]()),
        "salted": hash(name),
    }
pickle.dump(out, sys.stdout.buffer)
"""


def test_a_warm_topology_pickles_compares_and_fingerprints_like_a_cold_one():
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=str(Path(repro.__file__).parents[1]),
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    child = pickle.loads(done.stdout)

    for name in sorted(PRESETS):
        cold, warm = PRESETS[name](), _warm(PRESETS[name]())
        report = child[name]
        assert report["salted"] != hash(name)  # two salts, or no test
        # Byte for byte: the memo never pickles, here or there.
        assert pickle.dumps(warm) == pickle.dumps(cold) == report["cold"]
        assert report["warm"] == report["cold"]
        assert warm.fingerprint() == cold.fingerprint()
        assert report["fingerprints"] == (cold.fingerprint(),) * 2
        equal = (warm == warm, warm == cold, cold == PRESETS[name]())
        assert equal == report["equal"]
        # An unpickled warm topology starts cold, and answers the same.
        clone = pickle.loads(pickle.dumps(warm))
        assert clone.interconnect._node_set_scores == {}
        nodes = tuple(range(clone.n_nodes))
        assert clone.interconnect.aggregate_bandwidth(
            nodes
        ) == warm.interconnect.aggregate_bandwidth(nodes)
        assert hash(clone.fingerprint()) == hash(warm.fingerprint())
