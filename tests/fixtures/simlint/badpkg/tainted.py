"""Planted host-taint flow: a wall-clock read travels through an
assignment and a helper's return value into a sim-context call."""

import time

from badpkg.kernel import SimKernel


def host_deadline():
    # host-only value: fine to read...
    started = time.monotonic()
    return started


def schedule_warmup(kernel: SimKernel, delay):
    # ...sim-context: calls a kernel primitive
    ev = kernel.timeout(delay)
    return ev


def boot(kernel: SimKernel):
    budget = host_deadline()
    # VIOLATION: host clock value parameterises the simulated timeline
    schedule_warmup(kernel, budget)


class Endpoint:
    """A project receive that shares a socket method's name."""

    def recv(self, source):
        return source


def socket_boot(kernel: SimKernel, sock):
    # VIOLATION: bytes read off a real socket parameterise the timeline
    schedule_warmup(kernel, sock.recv(4096))


def endpoint_boot(kernel: SimKernel, ep: Endpoint):
    # clean: ep.recv resolves to Endpoint.recv, simulated data
    schedule_warmup(kernel, ep.recv(0))


def local_endpoint_boot(kernel: SimKernel, world):
    # clean: an annotated local resolves like an annotated parameter
    ep: Endpoint = world.endpoint
    schedule_warmup(kernel, ep.recv(0))
