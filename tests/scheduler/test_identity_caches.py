"""Cached identity never crosses a process, and never outlives its fields.

``WorkloadProfile`` caches its wire row and its hash, ``Placement`` takes
its hash at construction.  Both hashes cover strings, and string hashes
are salted per interpreter: a cached value that rode a pickle into
another process would make the object unfindable in every dict there —
silently, and only when parent and child salts differ.  So the round
trip below runs the child under a different ``PYTHONHASHSEED``.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.placements import Placement
from repro.perfsim.library import workload_by_name
from repro.perfsim.workload import WorkloadProfile
from repro.scheduler.requests import PlacementRequest
from repro.topology import amd_opteron_6272

#: Runs in the child: unpickle, check against natively built equals,
#: hash everything (filling the caches under *this* salt), send it back.
CHILD = """
import pickle, sys
from repro.core.placements import Placement
from repro.perfsim.workload import WorkloadProfile
from repro.scheduler.requests import PlacementRequest
from repro.topology import amd_opteron_6272

(profile, placement, request), (row, nodes, vcpus, l2_share) = pickle.load(
    sys.stdin.buffer
)
leaked = [
    type(obj).__name__
    for obj in (profile, request.profile, placement.machine.fingerprint())
    if "_hash" in vars(obj)
]
native_profile = WorkloadProfile(*row)
native_placement = Placement(amd_opteron_6272(), nodes, vcpus, l2_share=l2_share)
native_request = PlacementRequest(7, native_profile, vcpus, 0.9)
table = {native_profile: "profile", native_placement: "placement",
         native_request: "request"}
found = [table.get(profile), table.get(placement), table.get(request)]
pickle.dump(
    {
        "leaked": leaked,
        "found": found,
        "salted": hash("amd-opteron-6272"),
        "objects": (profile, placement, request),
        "natives": (native_profile, native_placement, native_request),
    },
    sys.stdout.buffer,
)
"""


def _through_a_child(payload):
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=str(Path(repro.__file__).parents[1]),
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=pickle.dumps(payload),
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    return pickle.loads(done.stdout)


def test_cached_hashes_do_not_cross_a_process():
    machine = amd_opteron_6272()
    profile = workload_by_name("gcc")
    placement = Placement(machine, [2, 3], 16, l2_share=2)
    request = PlacementRequest(7, profile, 16, 0.9)
    originals = (profile, placement, request)
    hashes = [hash(obj) for obj in originals]  # every cache is filled
    assert "_hash" in vars(profile) and "_hash" in vars(placement)

    reply = _through_a_child(
        (originals, (profile.row(), placement.nodes, 16, placement.l2_share))
    )
    # The round trip means something only across two salts.
    assert reply["salted"] != hash("amd-opteron-6272")
    assert reply["leaked"] == []
    assert reply["found"] == ["profile", "placement", "request"]

    # And back: the child hashed all six under its own salt before
    # pickling them; here they must key like the originals again.
    table = dict(zip(originals, ("profile", "placement", "request")))
    for returned in (reply["objects"], reply["natives"]):
        assert list(returned) == list(originals)
        assert [hash(obj) for obj in returned] == hashes
        assert [table[obj] for obj in returned] == list(table.values())


def test_in_process_pickle_and_copy_start_without_caches():
    profile = workload_by_name("WTbtree")
    hash(profile)
    clone = pickle.loads(pickle.dumps(profile))
    assert clone == profile and clone is not profile
    assert not {"_row", "_hash"} & vars(clone).keys()
    placement = Placement(amd_opteron_6272(), [0, 1], 8)
    clone = pickle.loads(pickle.dumps(placement))
    assert clone == placement and hash(clone) == hash(placement)
    assert clone.l3_groups_per_node == placement.l3_groups_per_node


def test_replaced_profile_gets_a_fresh_cache():
    profile = workload_by_name("gcc")
    row, value = profile.row(), hash(profile)
    assert profile.row() is row  # built once
    for copy in (
        dataclasses.replace(profile, name="gcc-variant"),
        dataclasses.replace(profile, ipc_base=profile.ipc_base * 2),
    ):
        assert not {"_row", "_hash"} & vars(copy).keys()
        assert copy != profile and copy.row() != row
        assert hash(copy) == hash(copy.row()) != value
        assert WorkloadProfile(*copy.row()) == copy
    # An unchanged copy is a new object that hashes itself, equally.
    same = dataclasses.replace(profile)
    assert "_hash" not in vars(same) and hash(same) == value
    assert {profile: 1}[same] == 1


def test_caches_stay_out_of_every_declared_view():
    profile = workload_by_name("gcc")
    hash(profile)
    names = {f.name for f in dataclasses.fields(WorkloadProfile)}
    assert profile.to_dict().keys() == names
    assert dataclasses.asdict(profile).keys() == names
    assert len(profile.row()) == len(names)
    assert "_hash" not in repr(profile) and "_row" not in repr(profile)
