"""Tests for world assembly."""

import numpy as np
import pytest

from repro.synth import build_world, WorldConfig


class TestWorldAssembly:
    def test_service_holds_every_user(self, small_world):
        assert len(small_world.service) == small_world.n_users

    def test_service_edges_match_generated_graph(self, small_world):
        service = small_world.service
        total_out = sum(service.out_degree(uid) for uid in service.user_ids())
        assert total_out == small_world.graph.n_edges

    def test_followers_consistent_with_edges(self, small_world):
        service = small_world.service
        sources, targets = small_world.true_edge_arrays()
        u, v = int(sources[0]), int(targets[0])
        assert v in service.followees(u)
        assert u in service.followers(v)

    def test_seed_user_is_zuckerberg(self, small_world):
        seed = small_world.seed_user_id()
        assert small_world.profiles[seed].name == "Mark Zuckerberg"

    def test_open_signup_enabled_after_build(self, small_world):
        assert small_world.service.open_signup

    def test_celebrities_exempt_from_circle_limit(self, small_world):
        service = small_world.service
        for user_id in small_world.population.celebrity_spec:
            assert service.columns().exempt[user_id]

    def test_frontend_serves_profiles(self, small_world):
        from repro.platform.http import Request

        frontend = small_world.frontend()
        response = frontend.handle(Request("/u/0", "1.1.1.1"))
        assert response.ok
        assert response.payload.user_id == 0

    def test_display_limit_passed_through(self):
        world = build_world(
            WorldConfig(n_users=500, seed=2, circle_display_limit=50)
        )
        assert world.service.circle_display_limit == 50

    def test_deterministic_build(self):
        a = build_world(WorldConfig(n_users=600, seed=33))
        b = build_world(WorldConfig(n_users=600, seed=33))
        assert np.array_equal(a.graph.sources, b.graph.sources)
        assert a.profiles[10].public_field_keys() == b.profiles[10].public_field_keys()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(n_users=500, seed=1, field_trial_fraction=1.5)
        with pytest.raises(ValueError):
            WorldConfig(n_users=500, seed=1, tel_user_rate=1.0)

    def test_dict_store_rejected_with_cause(self):
        with pytest.raises(ValueError, match="dict store was removed"):
            WorldConfig(n_users=500, store="dict")
        with pytest.raises(ValueError, match="'columnar'"):
            WorldConfig(n_users=500, store="sharded")
        assert WorldConfig(n_users=500).store == "columnar"


class TestSeedUser:
    def _global_ranked(self, world) -> list[int]:
        return [
            uid
            for _, uid in sorted(
                (spec.global_rank, uid)
                for uid, spec in world.population.celebrity_spec.items()
                if spec.global_rank >= 2
            )
        ]

    def test_seed_walks_past_hidden_lists(self):
        world = build_world(WorldConfig(n_users=500, seed=4))
        rank2, rank3, rank4 = self._global_ranked(world)[:3]
        for uid in (rank2, rank3, rank4):
            world.service.set_lists_public(uid, True)
        assert world.seed_user_id() == rank2
        world.service.set_lists_public(rank2, False)
        world.service.set_lists_public(rank3, False)
        assert world.seed_user_id() == rank4

    def test_no_public_celebrity_is_a_clear_error(self):
        world = build_world(WorldConfig(n_users=500, seed=4))
        for uid in self._global_ranked(world):
            world.service.set_lists_public(uid, False)
        with pytest.raises(RuntimeError, match="no crawlable seed"):
            world.seed_user_id()

    def test_rank_one_is_never_the_seed(self):
        world = build_world(WorldConfig(n_users=500, seed=4))
        rank1 = next(
            uid
            for uid, spec in world.population.celebrity_spec.items()
            if spec.global_rank == 1
        )
        world.service.set_lists_public(self._global_ranked(world)[0], False)
        assert world.seed_user_id() != rank1
