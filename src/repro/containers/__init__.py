"""Virtual containers and the simulated host they run on.

The paper runs workloads in lxc containers whose vCPUs the scheduler maps
to hardware threads.  :class:`~repro.containers.container.VirtualContainer`
is that unit of deployment; :class:`~repro.containers.host.SimulatedHost`
stands in for the physical machine + container runtime: it deploys
containers (pinned to a placement, or unpinned under a Linux-CFS-like
default mapping), models interference between co-located containers, and
reports the online performance metric the model consumes.
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first read.
_EXPORTS = {
    "VirtualContainer": "repro.containers.container",
    "Deployment": "repro.containers.host",
    "SimulatedHost": "repro.containers.host",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
