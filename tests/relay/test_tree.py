"""Cascaded tree integration: convergence and AH feedback isolation."""

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.net.channel import ChannelConfig
from repro.obs import Instrumentation
from repro.relay import build_relay_tree
from repro.sharing.ah import ApplicationHost
from repro.surface.geometry import Rect


def drive(ah, tree, clock, rounds, dt=0.02, edit_at=(), editor=None):
    for i in range(rounds):
        if editor is not None and i in edit_at:
            editor.type_text(f"edit@{i} " * 10)
        ah.advance(dt)
        tree.pump()
        tree.pump_viewers()
        clock.advance(dt)


@pytest.fixture
def shared_ah(clock):
    ah = ApplicationHost(clock=clock)
    win = ah.windows.create_window(Rect(30, 30, 320, 240))
    editor = TextEditorApp(win)
    ah.apps.attach(editor)
    return ah, editor


class TestTreeShape:
    def test_build_counts(self, clock, shared_ah):
        ah, _ = shared_ah
        tree = build_relay_tree(
            ah, clock, fanouts=(2, 3), viewers_per_leaf=2,
        )
        assert len(tree.levels) == 2
        assert len(tree.levels[0]) == 2
        assert len(tree.levels[1]) == 6
        assert len(tree.relays) == 8
        assert len(tree.viewers) == 12
        # The AH sees only the root fan-out, flagged as groups.
        assert len(ah.sessions) == 2
        assert all(s.is_group for s in ah.sessions.values())

    def test_child_relays_hang_off_their_parents(self, clock, shared_ah):
        ah, _ = shared_ah
        tree = build_relay_tree(
            ah, clock, fanouts=(2, 2), viewers_per_leaf=1,
        )
        for parent in tree.levels[0]:
            child_ids = {
                r.id for r in tree.levels[1]
                if r.id in parent.downstreams
            }
            assert len(child_ids) == 2

    def test_relays_built_without_rng_get_distinct_replayable_ssrcs(
        self, clock
    ):
        # RFC 3550 section 8: every source in a session has its own
        # SSRC.  Without an ``rng`` each relay seeds from its own id, so
        # the tree is also the same on every build.
        def ssrcs():
            tree = build_relay_tree(
                ApplicationHost(clock=clock), clock, fanouts=(2, 2),
                viewers_per_leaf=1,
            )
            return [r.ssrc for r in tree.relays], [
                v.ssrc for v in tree.viewers
            ]

        relays, viewers = ssrcs()
        assert len(set(relays)) == len(relays) == 6
        assert len(set(viewers)) == len(viewers) == 4
        assert ssrcs() == (relays, viewers)


class TestConvergence:
    def test_two_level_tree_converges_lossless(self, clock, shared_ah):
        ah, editor = shared_ah
        tree = build_relay_tree(
            ah, clock, fanouts=(2, 2), viewers_per_leaf=2,
            channel_config=ChannelConfig(delay=0.005, seed=5),
        )
        drive(ah, tree, clock, 150, edit_at=(40,), editor=editor)
        assert all(v.converged_with(ah.windows) for v in tree.viewers)

    def test_tree_converges_under_loss_on_every_hop(self, clock, shared_ah):
        ah, editor = shared_ah
        tree = build_relay_tree(
            ah, clock, fanouts=(2, 2), viewers_per_leaf=2,
            channel_config=ChannelConfig(delay=0.005, loss_rate=0.05, seed=9),
        )
        drive(
            ah, tree, clock, 500,
            edit_at=(30, 80, 130, 180), editor=editor,
        )
        assert all(v.converged_with(ah.windows) for v in tree.viewers)


class TestFeedbackIsolation:
    def test_ah_sees_only_root_relay_feedback(self, clock):
        obs = Instrumentation(clock=clock)
        ah = ApplicationHost(clock=clock, obs=obs)
        win = ah.windows.create_window(Rect(30, 30, 320, 240))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        tree = build_relay_tree(
            ah, clock, fanouts=(2, 2), viewers_per_leaf=3,
            channel_config=ChannelConfig(delay=0.005, loss_rate=0.05, seed=4),
            obs=obs,
        )
        drive(
            ah, tree, clock, 500,
            edit_at=tuple(range(20, 380, 40)), editor=editor,
        )
        viewer_nacks = sum(
            leaf.nacks_received for leaf in tree.levels[-1]
        )
        root_upstream = sum(r.upstream_nacks for r in tree.levels[0])
        assert viewer_nacks > 0, "loss produced no NACKs; scenario too tame"
        # Absorption: the AH hears only what the roots could not serve.
        assert ah.nacks_received == root_upstream
        assert ah.nacks_received < viewer_nacks
        # And every viewer still converged.
        assert all(v.converged_with(ah.windows) for v in tree.viewers)

    def test_relay_span_stage_recorded(self, clock):
        obs = Instrumentation(clock=clock)
        obs.spans  # tracing on before the session is built
        ah = ApplicationHost(clock=clock, obs=obs)
        win = ah.windows.create_window(Rect(10, 10, 200, 160))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        tree = build_relay_tree(
            ah, clock, fanouts=(1,), viewers_per_leaf=1,
            channel_config=ChannelConfig(delay=0.005, seed=2), obs=obs,
        )
        drive(ah, tree, clock, 120, edit_at=(30,), editor=editor)
        assert tree.viewers[0].converged_with(ah.windows)
        completed = [
            s for s in obs.spans.completed if s.outcome == "complete"
        ]
        relayed = [s for s in completed if "relay" in s.stages]
        assert relayed, "no completed span carries the relay stage"
        for span in relayed:
            t0, t1 = span.stages["relay"]
            # The relay hop sits inside the network window.
            assert span.stages["send"][0] <= t0 <= t1
            assert t0 <= span.stages["receive"][1]


class TestFailover:
    LIVE_KW = dict(suspect_after=0.4, dead_after=1.0)

    def _grow_tree(self, clock, ah):
        from repro.health import LivenessConfig

        return build_relay_tree(
            ah, clock, fanouts=(2, 2), viewers_per_leaf=2,
            channel_config=ChannelConfig(delay=0.005, seed=21),
            liveness=LivenessConfig(**self.LIVE_KW),
            rtcp_interval=0.3,  # viewer heartbeat < dead_after
        )

    def test_crashed_parent_reparents_subtree_onto_the_ah(
        self, clock, shared_ah
    ):
        ah, editor = shared_ah
        tree = self._grow_tree(clock, ah)
        victim = tree.levels[0][0]
        orphans = [
            leaf for leaf in tree.leaves
            if tree.parent_of[leaf.id] == victim.id
        ]
        drive(ah, tree, clock, 60, edit_at=(10,), editor=editor)
        assert all(v.converged_with(ah.windows) for v in tree.viewers)

        victim.crash()
        # Silence must cross dead_after before the orphans move.
        drive(ah, tree, clock, 80, editor=editor)
        for leaf in orphans:
            assert tree.parent_of[leaf.id] is None  # grandparent = AH
            assert leaf.failovers == 1
            assert leaf.id in ah.sessions
        moved = {orphan_id for orphan_id, _ in tree.failover_log}
        assert moved == {leaf.id for leaf in orphans}

        # Post-failover edits reach the orphaned subtree's viewers.
        drive(ah, tree, clock, 200, edit_at=(10,), editor=editor)
        assert all(v.converged_with(ah.windows) for v in tree.viewers)

    def test_healthy_subtrees_never_fail_over(self, clock, shared_ah):
        ah, editor = shared_ah
        tree = self._grow_tree(clock, ah)
        drive(ah, tree, clock, 300, edit_at=(10, 120), editor=editor)
        assert tree.failover_log == []
        assert all(r.failovers == 0 for r in tree.relays)
        assert all(v.converged_with(ah.windows) for v in tree.viewers)
