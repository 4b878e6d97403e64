"""Chaos primitives: scripted partition/stall/heal/crash on the fabric."""

import pytest

from repro.net.channel import ChannelConfig, LossyChannel, duplex_lossy
from repro.net import World
from repro.rtp.clock import SimulatedClock
from repro.sharing.transport import DatagramTransport


@pytest.fixture
def clock():
    return SimulatedClock()


@pytest.fixture
def channel(clock):
    return LossyChannel(ChannelConfig(delay=0.01), clock.now)


class TestPartition:
    def test_partition_drops_everything_sent_after_the_cut(
        self, clock, channel
    ):
        channel.send(b"before")
        channel.partition()
        assert channel.partitioned
        channel.send(b"during")
        clock.advance(1.0)
        # In-flight datagrams left before the cut and still arrive.
        assert channel.receive_ready() == [b"before"]
        assert channel.datagrams_dropped_partition == 1
        assert channel.datagrams_dropped == 1

    def test_heal_restores_delivery(self, clock, channel):
        channel.partition()
        channel.send(b"lost")
        channel.heal()
        assert not channel.partitioned
        channel.send(b"after")
        clock.advance(1.0)
        assert channel.receive_ready() == [b"after"]


class TestStall:
    def test_stall_withholds_without_dropping(self, clock, channel):
        channel.send(b"frozen")
        channel.stall()
        clock.advance(1.0)
        assert channel.stalled
        assert channel.receive_ready() == []
        assert channel.datagrams_dropped == 0
        channel.heal()
        # Healing floods out everything whose arrival time has passed.
        assert channel.receive_ready() == [b"frozen"]

    def test_sender_keeps_sending_through_a_stall(self, clock, channel):
        channel.stall()
        for i in range(3):
            channel.send(bytes([i]))
        channel.heal()
        clock.advance(1.0)
        assert channel.receive_ready() == [bytes([i]) for i in range(3)]


class TestDuplex:
    def test_duplex_partition_cuts_both_directions(self, clock):
        duplex = duplex_lossy(ChannelConfig(delay=0.01), clock.now)
        duplex.partition()
        duplex.forward.send(b"fwd")
        duplex.backward.send(b"bwd")
        clock.advance(1.0)
        assert duplex.forward.receive_ready() == []
        assert duplex.backward.receive_ready() == []
        duplex.heal()
        duplex.forward.send(b"ok")
        clock.advance(1.0)
        assert duplex.forward.receive_ready() == [b"ok"]


class TestTransportClose:
    def test_udp_close_has_no_fin(self, clock):
        duplex = duplex_lossy(ChannelConfig(delay=0.01), clock.now)
        near = DatagramTransport(duplex.forward, duplex.backward)
        far = DatagramTransport(duplex.backward, duplex.forward)
        near.close()
        assert near.closed
        # The peer's side stays open — death is visible only as silence.
        assert not far.closed
        assert near.send_packet(b"x") is False
        assert near.receive_packets() == []
        far.send_packet(b"into the void")
        clock.advance(1.0)
        assert near.receive_packets() == []


def ticking_world(clock):
    world = World(clock)
    world.add(world.tick)
    return world


class TestSimulationScripting:
    def test_partition_at_with_duration_auto_heals(self, clock):
        world = ticking_world(clock)
        channel = LossyChannel(ChannelConfig(delay=0.0), clock.now)
        world.at(1.0, channel.partition)
        world.at(3.0, channel.heal)
        world.run_until(lambda: channel.partitioned, timeout=5.0)
        assert clock.now() == pytest.approx(1.0, abs=0.1)
        world.run_until(lambda: not channel.partitioned, timeout=5.0)
        assert clock.now() == pytest.approx(3.0, abs=0.1)

    def test_stall_at_and_heal_at(self, clock):
        world = ticking_world(clock)
        channel = LossyChannel(ChannelConfig(delay=0.0), clock.now)
        world.at(0.5, channel.stall)
        world.at(1.5, channel.heal)
        world.run_until(lambda: channel.stalled, timeout=5.0)
        world.run_until(lambda: not channel.stalled, timeout=5.0)
        assert clock.now() >= 1.5

    def test_crash_at_kills_the_node(self, clock):
        class Node:
            crashed = False

            def crash(self):
                self.crashed = True

        world = ticking_world(clock)
        node = Node()
        world.at(2.0, node.crash)
        world.run_until(lambda: node.crashed, timeout=5.0)
        assert clock.now() >= 2.0
