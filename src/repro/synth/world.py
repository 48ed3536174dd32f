"""Assembly of a complete synthetic Google+ world.

:class:`SyntheticWorld` ties the generator stages together: population →
profiles → social graph → a populated :class:`GooglePlusService` behind a
rate-limited HTTP front end. It keeps the ground truth around so tests
and ablation benches can compare crawled measurements against the truth.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.obs import trace
from repro.platform.columnar import ColumnarProfileStore
from repro.platform.gcpause import gc_paused
from repro.platform.http import HttpFrontend, SimulatedClock
from repro.platform.service import GooglePlusService

from .config import WorldConfig
from .fastgen import generate_graph_fast
from .fastprofiles import build_profile_columns_fast
from .graphgen import GeneratedGraph, generate_graph
from .profiles import Population, build_profiles, generate_population

#: Circle labels used when planting social links, to exercise named circles.
_CIRCLE_LABELS = ("friends", "family", "colleagues", "following")


class ProfilesView(Mapping):
    """Read-only ``{user_id: profile}`` mapping over a service: each
    lookup is :meth:`GooglePlusService.profile` (no object per user is
    held; a base user's profile is a read-only snapshot)."""

    def __init__(self, service: GooglePlusService):
        self._service = service

    def __getitem__(self, uid: int):
        if uid not in self._service:
            raise KeyError(uid)
        return self._service.profile(uid)

    def __iter__(self):
        return self._service.user_ids()

    def __len__(self) -> int:
        return len(self._service)


@dataclass
class SyntheticWorld:
    """A fully assembled world: service + front end + ground truth."""

    config: WorldConfig
    population: Population
    #: ``{user_id: profile}`` ground truth, read from the service.
    profiles: ProfilesView
    graph: GeneratedGraph
    service: GooglePlusService
    clock: SimulatedClock

    def frontend(
        self,
        rate_per_ip: float = 200.0,
        burst: float = 400.0,
        error_rate: float = 0.0,
        faults=None,
    ) -> HttpFrontend:
        """A fresh HTTP front end over this world's service.

        ``faults`` is an optional :class:`repro.faults.FaultSchedule` of
        scripted failure windows (chaos campaigns).
        """
        return HttpFrontend(
            self.service.handle_path,
            clock=self.clock,
            rate_per_ip=rate_per_ip,
            burst=burst,
            error_rate=error_rate,
            seed=self.config.seed + 101,
            faults=faults,
        )

    @property
    def n_users(self) -> int:
        return self.population.n

    def true_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Ground-truth (sources, targets) arrays of the social graph."""
        return self.graph.sources, self.graph.targets

    def seed_user_id(self) -> int:
        """The crawl seed: the rank-2 global celebrity (Mark Zuckerberg).

        The paper began its BFS at Mark Zuckerberg's public profile.
        Every user draws whether their circle lists are public, and a
        crawl seeded at hidden lists fetches one page, so when the rank-2
        celebrity hides them the seed walks on to ranks 3, 4, … and takes
        the first global celebrity whose lists are public.
        """
        by_rank = sorted(
            (spec.global_rank, user_id)
            for user_id, spec in self.population.celebrity_spec.items()
            if spec.global_rank >= 2
        )
        for _, user_id in by_rank:
            if self.service.lists_public(user_id):
                return user_id
        raise RuntimeError(
            "no global celebrity of rank 2 or lower shows public circle "
            "lists: the world has no crawlable seed"
        )


def _ingest_service(
    world_config: WorldConfig,
    population: Population,
    profile_store: ColumnarProfileStore,
    graph: GeneratedGraph,
    rng: np.random.Generator,
) -> GooglePlusService:
    """A service holding the generated world as its columnar base.

    Registration and edge planting are one bulk ingest.  The inviter
    rolls of the field-trial signup are still drawn, so the RNG stream —
    and with it every later draw — is the one the per-account signup
    consumed; the inviter check itself is skipped because the
    generator's inviters are valid by construction (each user is invited
    by an earlier trial user).
    """
    service = GooglePlusService(
        open_signup=True,
        circle_display_limit=world_config.circle_display_limit,
    )
    n = population.n
    trial_count = max(1, int(round(world_config.field_trial_fraction * n)))
    rng.integers(0, trial_count, size=n)  # the field-trial inviter rolls
    circle_rolls = rng.integers(0, len(_CIRCLE_LABELS), size=graph.n_edges)
    # Narrow before ingest: holding the int64 draw alongside the CSR
    # build costs O(edges) for nothing.
    circle_rolls = circle_rolls.astype(np.uint8)
    service.ingest_world(
        profile_store,
        graph.sources,
        graph.targets,
        _CIRCLE_LABELS,
        circle_rolls,
        exempt_ids=population.celebrity_spec,
    )
    return service


def build_world(config: WorldConfig | None = None) -> SyntheticWorld:
    """Generate a complete world from a config (or the calibrated default)."""
    config = config if config is not None else WorldConfig()
    rng = np.random.default_rng(config.seed)
    fast = config.engine == "fast"
    # One GC pause across the whole fast build: the stage-local pauses
    # nest inside it (gc_paused is re-entrant), so the collector sweeps
    # the finished world once instead of after every stage.
    pause = gc_paused() if fast else nullcontext()
    with trace.span(
        "synth.build_world", users=config.n_users, engine=config.engine
    ), pause:
        with trace.span("synth.population"):
            population = generate_population(config, rng)
        with trace.span("synth.profiles"):
            if fast:
                # Columns assembled directly: no UserProfile object ever
                # exists for the base world.
                profile_store = build_profile_columns_fast(population, config, rng)
            else:
                profile_store = ColumnarProfileStore.from_profiles(
                    build_profiles(population, config, rng)
                )
        with trace.span("synth.graphgen"):
            if fast:
                graph = generate_graph_fast(population, config.graph, rng)
            else:
                graph = generate_graph(population, config.graph, rng)
        with trace.span("synth.service"):
            service = _ingest_service(config, population, profile_store, graph, rng)
    return SyntheticWorld(
        config=config,
        population=population,
        profiles=ProfilesView(service),
        graph=graph,
        service=service,
        clock=SimulatedClock(),
    )
