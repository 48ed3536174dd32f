"""The simulated Google+ service.

This is the substrate the paper measures: account signup (invitation-only
field trial, then open signup), circle management with the out-circle cap
and whitelist, follower tracking, per-field privacy enforcement, and the
public profile pages the crawler scrapes. A lightweight content layer
(posts with circle-scoped visibility, reshares and +1s) rounds out the
platform description of Section 2.1.

State lives in two layers (``docs/storage.md``):

* the **base world** — profile columns, circle CSR and cap-exempt flags
  for users ``0 .. n-1`` (:class:`~repro.platform.columnar.ColumnarWorld`),
  adopted in one call by :meth:`GooglePlusService.ingest_world` and
  empty until then;
* **copy-on-write overlays** — per user and per component, ordinary
  objects: a :class:`UserProfile`, a :class:`CircleStore` and a follower
  dict. The first write to a base user's component materialises that
  one component; users added by :meth:`~GooglePlusService.register`
  live wholly in the overlays.

A notification feed is never materialised: a base user's feed is its
incoming links read from the columns (until the feed is first cleared),
followed by an appended tail of later notes.

Every read checks the user's overlay component first, then the columns.
Reads never promote, so a crawl leaves the world columnar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterator

import numpy as np

from .circles import (
    CIRCLE_DISPLAY_LIMIT,
    CircleStore,
    DEFAULT_CIRCLE,
)
from .columnar import ColumnarCircles, ColumnarProfileStore, ColumnarWorld
from .errors import (
    AlreadyRegisteredError,
    SignupClosedError,
    UnknownUserError,
)
from .http import STATUS_NOT_FOUND, STATUS_OK
from .models import ProfileSnapshot, UserProfile
from .pages import CircleListView, ProfilePage, truncate_list
from .privacy import FieldPrivacy, Visibility

#: Bound on the cache of base owners' membership sets behind
#: :meth:`GooglePlusService.in_circles`; one entry costs O(out-degree),
#: so the cache is kept far below the world size.
_MEMBER_SET_CACHE = 16_384


@dataclass(frozen=True)
class MutationEvent:
    """One state change a subscriber (e.g. a page cache) must react to.

    Kinds: ``circle_add`` / ``circle_remove`` (``user_id`` acts on
    ``target_id``), ``profile`` (a field or lists_public change on
    ``user_id``), ``post`` (``user_id`` published) and ``plus_one``
    (``target_id`` is the post id).
    """

    kind: str
    user_id: int
    target_id: int | None = None


@dataclass(frozen=True)
class Notification:
    """An in-app notification.

    Section 2.1: "A user can identify all the others who included the
    user in their circles (i.e., followers), because the user receives a
    notification when someone adds him to a circle."
    """

    kind: str
    actor_id: int
    subject_id: int | None = None


@dataclass
class Post:
    """A stream item: content shared to a set of the author's circles.

    ``to_circles`` of ``None`` means shared publicly.
    """

    post_id: int
    author_id: int
    content: str
    to_circles: frozenset[str] | None = None
    plus_ones: set[int] = field(default_factory=set)
    reshared_from: int | None = None


class GooglePlusService:
    """In-process simulation of the Google+ social networking service."""

    def __init__(
        self,
        open_signup: bool = False,
        circle_display_limit: int = CIRCLE_DISPLAY_LIMIT,
    ):
        if circle_display_limit < 1:
            raise ValueError("circle display limit must be positive")
        self._base = ColumnarWorld.empty()
        self._profiles: dict[int, UserProfile] = {}
        self._circles: dict[int, CircleStore] = {}
        self._followers: dict[int, dict[int, None]] = {}
        #: Notes appended since ingest (or since the last clear).
        self._notifications: dict[int, list[Notification]] = {}
        #: Users whose feed was cleared: their base links are consumed.
        self._cleared_feeds: set[int] = set()
        #: Users created by :meth:`register`, in signup order.
        self._registered: list[int] = []
        self._member_sets: dict[int, frozenset] = {}
        self._posts: dict[int, Post] = {}
        self._next_post_id = 1
        self.open_signup = open_signup
        self.circle_display_limit = circle_display_limit
        #: Mutation subscribers; empty for every non-serving workload, so
        #: the guard in :meth:`_notify` keeps the hot paths free.
        self._mutation_listeners: list = []

    # -- mutation events -----------------------------------------------------

    def add_mutation_listener(self, listener) -> None:
        """Subscribe a callable to :class:`MutationEvent` notifications."""
        self._mutation_listeners.append(listener)

    def _notify(self, kind: str, user_id: int, target_id: int | None = None) -> None:
        if self._mutation_listeners:
            event = MutationEvent(kind=kind, user_id=user_id, target_id=target_id)
            for listener in self._mutation_listeners:
                listener(event)

    # -- account lifecycle -------------------------------------------------

    def register(
        self,
        profile: UserProfile,
        invited_by: int | None = None,
        exempt_from_circle_limit: bool = False,
    ) -> None:
        """Create an account.

        During the field trial (``open_signup`` False) a valid inviter who
        is already a member is required, mirroring the invitation-viral
        growth phase described in Section 2.1.
        """
        user_id = profile.user_id
        if user_id in self:
            raise AlreadyRegisteredError(user_id)
        if not self.open_signup:
            if invited_by is None:
                raise SignupClosedError(
                    "signups are invitation-only during the field trial"
                )
            self._require(invited_by)
        store = CircleStore(user_id, exempt_from_limit=exempt_from_circle_limit)
        store.create_circle(DEFAULT_CIRCLE)
        self._profiles[user_id] = profile
        self._circles[user_id] = store
        self._followers[user_id] = {}
        self._registered.append(user_id)

    def ingest_world(
        self,
        profiles: ColumnarProfileStore,
        sources: np.ndarray,
        targets: np.ndarray,
        circle_labels: tuple[str, ...],
        label_codes: np.ndarray,
        exempt_ids=(),
    ) -> int:
        """Adopt a bulk-generated world as the base: profile columns plus
        an edge batch, state-identical to registering every profile and
        then calling :meth:`add_to_circle` once per edge, in order
        (``sources[i]`` adds ``targets[i]`` to the circle named
        ``circle_labels[label_codes[i]]``).  ``exempt_ids`` names the
        users whitelisted past the out-circle cap.  Returns the link
        count.

        Validation happens before any state changes: unknown users,
        self-edges, mismatched lengths and label codes outside
        ``circle_labels`` raise, and so does a non-exempt owner with more
        than :data:`~repro.platform.circles.OUT_CIRCLE_LIMIT` contacts.
        """
        if len(self):
            raise ValueError("ingest_world must run on an empty service")
        n = profiles.n
        exempt = np.zeros(n, dtype=bool)
        ids = [int(u) for u in exempt_ids if 0 <= int(u) < n]
        if ids:
            exempt[ids] = True
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        codes = np.asarray(label_codes)
        if src.ndim != 1 or dst.shape != src.shape or codes.shape != src.shape:
            raise ValueError("sources, targets and label codes must have equal length")
        if len(src):
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= n:
                raise UnknownUserError(lo if lo < 0 else hi)
            if bool((src == dst).any()):
                raise ValueError(
                    "users cannot add themselves to their own circles"
                )
            if int(codes.min()) < 0 or int(codes.max()) >= len(circle_labels):
                raise ValueError("label codes out of label range")
        circles = ColumnarCircles.build(
            n, src, dst, codes, tuple(circle_labels), exempt
        )
        self._base = ColumnarWorld(profiles, circles, exempt)
        self._member_sets.clear()
        return int(len(circles.in_sources))

    def columns(self) -> ColumnarWorld:
        """The base world (benchmarks, inspection)."""
        return self._base

    def enable_open_signup(self) -> None:
        """End the field trial: anyone may sign up (September 20th, 2011)."""
        self.open_signup = True

    def __contains__(self, user_id: object) -> bool:
        if not isinstance(user_id, (int, np.integer)):
            return False
        return 0 <= user_id < self._base.n or user_id in self._profiles

    def __len__(self) -> int:
        return self._base.n + len(self._registered)

    def user_ids(self) -> Iterator[int]:
        return chain(range(self._base.n), self._registered)

    def _check_base(self, user_id: int) -> None:
        """Raise unless ``user_id`` is a base user (overlay lookups missed)."""
        if not 0 <= user_id < self._base.n:
            raise UnknownUserError(user_id)

    def _require(self, user_id: int) -> None:
        if user_id not in self:
            raise UnknownUserError(user_id)

    # -- copy-on-write promotion -------------------------------------------

    def _promote_profile(self, user_id: int) -> UserProfile:
        profile = self._profiles.get(user_id)
        if profile is None:
            self._check_base(user_id)
            profile = self._base.profiles.materialize_profile(user_id)
            self._profiles[user_id] = profile
        return profile

    def _promote_circles(self, user_id: int) -> CircleStore:
        store = self._circles.get(user_id)
        if store is None:
            self._check_base(user_id)
            store = self._base.circles.materialize_store(
                user_id, bool(self._base.exempt[user_id])
            )
            self._circles[user_id] = store
            self._member_sets.pop(user_id, None)
        return store

    def _promote_followers(self, user_id: int) -> dict[int, None]:
        followers = self._followers.get(user_id)
        if followers is None:
            self._check_base(user_id)
            followers = dict.fromkeys(self._base.circles.in_slice(user_id).tolist())
            self._followers[user_id] = followers
        return followers

    # -- profile reads --------------------------------------------------------

    def profile(self, user_id: int) -> UserProfile:
        """The user's profile: the live overlay object, or — for a base
        user never written — a read-only :class:`ProfileSnapshot`
        materialised from the columns, which raises on any write.

        Write through :meth:`update_field` / :meth:`set_lists_public`.
        """
        profile = self._profiles.get(user_id)
        if profile is not None:
            return profile
        self._check_base(user_id)
        return ProfileSnapshot(self._base.profiles.materialize_profile(user_id))

    def name_of(self, user_id: int) -> str:
        profile = self._profiles.get(user_id)
        if profile is not None:
            return profile.name
        self._check_base(user_id)
        return self._base.profiles.name_of(user_id)

    def lists_public(self, user_id: int) -> bool:
        """Whether the user shows their circle lists on the profile page."""
        profile = self._profiles.get(user_id)
        if profile is not None:
            return profile.lists_public
        self._check_base(user_id)
        return bool(self._base.profiles.lists_public[user_id])

    def field_privacies(self, user_id: int) -> list[tuple[str, FieldPrivacy]]:
        """The user's ``(field key, privacy)`` pairs, in page order."""
        profile = self._profiles.get(user_id)
        if profile is not None:
            return [(key, entry.privacy) for key, entry in profile.fields.items()]
        self._check_base(user_id)
        return [
            (key, column.privacies[code])
            for key, column, code in self._base.profiles.coded_fields(user_id)
        ]

    def field_value(self, user_id: int, key: str) -> Any:
        """The value of a field the user carries (no privacy check)."""
        profile = self._profiles.get(user_id)
        if profile is not None:
            return profile.fields[key].value
        self._check_base(user_id)
        return self._base.profiles.columns[key].value(user_id)

    # -- circles / social links --------------------------------------------

    def add_to_circle(
        self, user_id: int, target_id: int, circle: str = DEFAULT_CIRCLE
    ) -> bool:
        """``user_id`` adds ``target_id`` to a circle (no confirmation needed).

        Returns True when a new directed social link was created.
        """
        self._require(user_id)
        self._require(target_id)
        is_new_link = self._promote_circles(user_id).add(target_id, circle)
        if is_new_link:
            self._promote_followers(target_id)[user_id] = None
            # Section 2.1: the added user is notified (circle name stays
            # private — only the fact of the add is revealed).
            self._notifications.setdefault(target_id, []).append(
                Notification(kind="added_to_circle", actor_id=user_id)
            )
        # Even a non-link add (an existing contact joining another circle)
        # changes the named-circle membership CUSTOM privacy reads.
        self._notify("circle_add", user_id, target_id)
        return is_new_link

    def remove_from_circle(
        self, user_id: int, target_id: int, circle: str | None = None
    ) -> bool:
        """Remove a contact from one circle (or all). True if the link died."""
        link_removed = self._promote_circles(user_id).remove(target_id, circle)
        if link_removed:
            self._promote_followers(target_id).pop(user_id, None)
        self._notify("circle_remove", user_id, target_id)
        return link_removed

    def followees(self, user_id: int) -> list[int]:
        """Users ``user_id`` has in circles ("In user's circles")."""
        store = self._circles.get(user_id)
        if store is not None:
            return store.flattened()
        self._check_base(user_id)
        return self._base.circles.out_slice(user_id).tolist()

    def followers(self, user_id: int) -> list[int]:
        """Users that have ``user_id`` in circles ("Have user in circles")."""
        followers = self._followers.get(user_id)
        if followers is not None:
            return list(followers)
        self._check_base(user_id)
        return self._base.circles.in_slice(user_id).tolist()

    def out_degree(self, user_id: int) -> int:
        store = self._circles.get(user_id)
        if store is not None:
            return store.out_degree()
        self._check_base(user_id)
        return self._base.circles.out_degree(user_id)

    def in_degree(self, user_id: int) -> int:
        followers = self._followers.get(user_id)
        if followers is not None:
            return len(followers)
        self._check_base(user_id)
        return self._base.circles.in_degree(user_id)

    def circle_names(self, user_id: int) -> list[str]:
        """The user's circle names, in creation order."""
        store = self._circles.get(user_id)
        if store is not None:
            return store.circle_names()
        self._check_base(user_id)
        return self._base.circles.circle_names(user_id)

    def in_circles(self, owner_id: int, viewer_id: int) -> bool:
        """Whether the owner has the viewer in any circle (O(1))."""
        store = self._circles.get(owner_id)
        if store is not None:
            return store.contains(viewer_id)
        self._check_base(owner_id)
        members = self._member_sets.get(owner_id)
        if members is None:
            if len(self._member_sets) >= _MEMBER_SET_CACHE:
                self._member_sets.clear()
            members = frozenset(self._base.circles.out_slice(owner_id).tolist())
            self._member_sets[owner_id] = members
        return viewer_id in members

    def in_extended_circles(self, owner_id: int, viewer_id: int) -> bool:
        """Whether the viewer is in the owner's circles, or in the
        circles of any of the owner's contacts (the EXTENDED_CIRCLES
        reach; O(owner's out-degree))."""
        if self.in_circles(owner_id, viewer_id):
            return True
        return any(
            self.in_circles(contact, viewer_id)
            for contact in self.followees(owner_id)
        )

    def _member_of(self, owner_id: int, viewer_id: int, circle: str) -> bool:
        store = self._circles.get(owner_id)
        if store is not None:
            return store.member_of(viewer_id, circle)
        self._check_base(owner_id)
        return self._base.circles.member_of(owner_id, viewer_id, circle)

    def circles_containing(self, owner_id, viewer_id, names) -> tuple[str, ...]:
        """Which of the owner's named circles hold the viewer, in the
        order ``names`` lists them (for CUSTOM privacy classing)."""
        return tuple(
            name for name in names if self._member_of(owner_id, viewer_id, name)
        )

    # -- profile mutation ----------------------------------------------------

    def update_field(
        self,
        user_id: int,
        key: str,
        value,
        privacy: FieldPrivacy | None = None,
    ) -> None:
        """Set or replace one optional profile field, notifying subscribers.

        This is the serving-side mutation path: it fires a ``profile``
        :class:`MutationEvent` so caches drop the owner's rendered pages.
        """
        profile = self._promote_profile(user_id)
        if privacy is None:
            profile.set_field(key, value)
        else:
            profile.set_field(key, value, privacy)
        self._notify("profile", user_id)

    def set_lists_public(self, user_id: int, public: bool) -> None:
        """Toggle the owner's circle-list visibility, notifying subscribers."""
        profile = self._profiles.get(user_id)
        if profile is not None:
            profile.lists_public = bool(public)
        else:
            # One flag per user: the column takes the write in place.
            self._check_base(user_id)
            self._base.profiles.lists_public[user_id] = bool(public)
        self._notify("profile", user_id)

    # -- privacy-aware profile views ----------------------------------------

    def can_view_field(self, owner_id: int, viewer_id: int | None, key: str) -> bool:
        """Decide whether ``viewer_id`` (None = anonymous) may see a field."""
        if key == "name":
            return True
        privacy = dict(self.field_privacies(owner_id)).get(key)
        if privacy is None:
            return False
        return self._allows(owner_id, viewer_id, privacy)

    def _allows(
        self, owner_id: int, viewer_id: int | None, privacy: FieldPrivacy
    ) -> bool:
        """Whether a field with ``privacy`` on the owner's profile is
        visible to ``viewer_id`` (None = anonymous)."""
        if viewer_id == owner_id:
            return True
        visibility = privacy.visibility
        if visibility is Visibility.PUBLIC:
            return True
        if viewer_id is None:
            return False
        if visibility is Visibility.ONLY_YOU:
            return False
        if visibility is Visibility.YOUR_CIRCLES:
            return self.in_circles(owner_id, viewer_id)
        if visibility is Visibility.EXTENDED_CIRCLES:
            return self.in_extended_circles(owner_id, viewer_id)
        # CUSTOM: the viewer must be in one of the named circles.
        return any(
            self._member_of(owner_id, viewer_id, name)
            for name in privacy.custom_circles
        )

    def profile_page(self, user_id: int, viewer_id: int | None = None) -> ProfilePage:
        """Render the profile page as seen by ``viewer_id`` (None = crawler).

        A base user with no profile overlay is rendered straight from the
        columns: privacy codes and values, no ``FieldValue`` per field.
        """
        profile = self._profiles.get(user_id)
        if profile is not None:
            visible = {
                key: entry.value
                for key, entry in profile.fields.items()
                if self._allows(user_id, viewer_id, entry.privacy)
            }
            name, lists_public = profile.name, profile.lists_public
        else:
            self._check_base(user_id)
            base = self._base.profiles
            visible = {
                key: column.value(user_id)
                for key, column, code in base.coded_fields(user_id)
                if self._allows(user_id, viewer_id, column.privacies[code])
            }
            name, lists_public = base.name_of(user_id), base.lists_public.item(user_id)
        in_list = out_list = None
        if viewer_id == user_id or lists_public:
            in_list, out_list = self._circle_lists(user_id)
        return ProfilePage(
            user_id=user_id,
            name=name,
            fields=visible,
            in_list=in_list,
            out_list=out_list,
        )

    def _circle_lists(self, user_id: int) -> tuple[CircleListView, CircleListView]:
        """The page's follower and contact lists, display-truncated.

        Base lists materialise only the displayed prefix; the CSR indptr
        supplies the true count the paper's lost-edge estimate reads.
        """
        limit = self.circle_display_limit
        base = self._base.circles
        followers = self._followers.get(user_id)
        if followers is not None:
            in_list = truncate_list(list(followers), limit)
        else:
            in_list = CircleListView(*base.in_prefix(user_id, limit))
        store = self._circles.get(user_id)
        if store is not None:
            out_list = truncate_list(store.flattened(), limit)
        else:
            out_list = CircleListView(*base.out_prefix(user_id, limit))
        return in_list, out_list

    # -- content layer (stream, +1, reshare) --------------------------------

    def publish(
        self,
        author_id: int,
        content: str,
        to_circles: frozenset[str] | None = None,
        reshared_from: int | None = None,
    ) -> Post:
        """Publish a post to the author's stream, optionally circle-scoped."""
        self._require(author_id)
        if to_circles is not None:
            unknown = to_circles - set(self.circle_names(author_id))
            if unknown:
                raise ValueError(f"author has no circles named {sorted(unknown)}")
        if reshared_from is not None and reshared_from not in self._posts:
            raise KeyError(f"unknown post id: {reshared_from}")
        post = Post(
            post_id=self._next_post_id,
            author_id=author_id,
            content=content,
            to_circles=to_circles,
            reshared_from=reshared_from,
        )
        self._next_post_id += 1
        self._posts[post.post_id] = post
        self._notify("post", author_id, post.post_id)
        return post

    def notifications(self, user_id: int, clear: bool = False) -> list[Notification]:
        """The user's notification feed (optionally consuming it).

        A base user's feed opens with one ``added_to_circle`` per
        incoming base link, in link order, until it is first cleared;
        the notes appended since follow.
        """
        self._require(user_id)
        items = []
        if 0 <= user_id < self._base.n and user_id not in self._cleared_feeds:
            items = [
                Notification(kind="added_to_circle", actor_id=actor)
                for actor in self._base.circles.in_slice(user_id).tolist()
            ]
        items.extend(self._notifications.get(user_id, ()))
        if clear:
            self._cleared_feeds.add(user_id)
            self._notifications.pop(user_id, None)
        return items

    def plus_one(self, user_id: int, post_id: int) -> None:
        """Record a +1: a public recommendation of a post."""
        self._require(user_id)
        try:
            post = self._posts[post_id]
        except KeyError:
            raise KeyError(f"unknown post id: {post_id}") from None
        if user_id not in post.plus_ones:
            post.plus_ones.add(user_id)
            self._notifications.setdefault(post.author_id, []).append(
                Notification(kind="plus_one", actor_id=user_id, subject_id=post_id)
            )
            self._notify("plus_one", user_id, post_id)

    def can_view_post(self, post_id: int, viewer_id: int | None) -> bool:
        """Circle-scoped posts are visible to members of the named circles."""
        post = self._posts[post_id]
        if post.to_circles is None:
            return True
        if viewer_id is None:
            return False
        if viewer_id == post.author_id:
            return True
        return any(
            self._member_of(post.author_id, viewer_id, name)
            for name in post.to_circles
        )

    def stream_for(self, viewer_id: int) -> list[Post]:
        """Posts flowing into a user's stream from the circles they follow."""
        followed = set(self.followees(viewer_id))
        return [
            post
            for post in self._posts.values()
            if post.author_id in followed and self.can_view_post(post.post_id, viewer_id)
        ]

    # -- HTTP handler ---------------------------------------------------------

    def handle_path(
        self, path: str, viewer_id: int | None = None
    ) -> tuple[int, ProfilePage | None]:
        """Serve ``/u/<id>`` paths for :class:`repro.platform.http.HttpFrontend`.

        ``viewer_id`` is the logged-in requester; the crawler's requests
        default to ``None`` and see exactly the anonymous pages they
        always did.
        """
        if not path.startswith("/u/"):
            return STATUS_NOT_FOUND, None
        try:
            user_id = int(path[3:])
        except ValueError:
            return STATUS_NOT_FOUND, None
        if user_id not in self:
            return STATUS_NOT_FOUND, None
        return STATUS_OK, self.profile_page(user_id, viewer_id=viewer_id)
