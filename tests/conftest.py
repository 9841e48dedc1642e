"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.ebpf import load_text
from repro.net import EndBPF, Node, SEG6LOCAL_HELPERS


@pytest.fixture
def router():
    """A two-port router with an address and a route to fc00:2::/64."""
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    node.add_route("fc00:1::/64", via="fc00:1::1", dev="eth0")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    return node


def install_end_bpf(node: Node, asm: str, segment: str = "fc00:e::100", maps=None, jit=True):
    """Load kernel-syntax ``asm`` as an End.BPF action on ``segment`` of ``node``."""
    prog = load_text(asm, maps=maps, jit=jit, allowed_helpers=SEG6LOCAL_HELPERS)
    action = EndBPF(prog)
    node.add_route(f"{segment}/128", encap=action)
    return action
