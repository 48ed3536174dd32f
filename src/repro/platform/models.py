"""Data model of Google+ user profiles.

A profile is a bag of typed field values, each carrying its own privacy
setting (:mod:`repro.platform.privacy`). Restricted fields use the enums
below, whose option lists mirror the paper exactly: the nine relationship
statuses of Table 3, the three gender buckets, and the occupation codes of
Table 5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field
from types import MappingProxyType
from typing import Any

from .fields import COUNTABLE_FIELD_KEYS, FIELDS_BY_KEY
from .privacy import PUBLIC, FieldPrivacy


class Gender(enum.Enum):
    """Gender options of the restricted gender field."""

    MALE = "Male"
    FEMALE = "Female"
    OTHER = "Other"


class Relationship(enum.Enum):
    """The nine default relationship statuses (Table 3)."""

    SINGLE = "Single"
    MARRIED = "Married"
    IN_A_RELATIONSHIP = "In a relationship"
    ITS_COMPLICATED = "It's complicated"
    ENGAGED = "Engaged"
    OPEN_RELATIONSHIP = "In an open relationship"
    WIDOWED = "Widowed"
    DOMESTIC_PARTNERSHIP = "In a domestic partnership"
    CIVIL_UNION = "In a civil union"


class LookingFor(enum.Enum):
    """Options of the restricted "looking for" field."""

    FRIENDS = "Friends"
    DATING = "Dating"
    RELATIONSHIP = "A relationship"
    NETWORKING = "Networking"


class Occupation(enum.Enum):
    """Occupation-job title codes used by Table 5 of the paper."""

    COMEDIAN = "Co"
    MUSICIAN = "Mu"
    IT = "IT"
    BUSINESSMAN = "Bu"
    MODEL = "Mo"
    ACTOR = "Ac"
    SOCIALITE = "So"
    TV_HOST = "TV"
    JOURNALIST = "Jo"
    BLOGGER = "Bl"
    ECONOMIST = "Ec"
    ARTIST = "Ar"
    POLITICIAN = "Po"
    PHOTOGRAPHER = "Ph"
    WRITER = "Wr"
    ASTRONAUT = "As"
    ENGINEER = "En"
    STUDENT = "St"
    TEACHER = "Te"
    OTHER = "Ot"


#: Long-form label per occupation code, as footnoted under Table 5.
OCCUPATION_LABELS: dict[Occupation, str] = {
    Occupation.COMEDIAN: "Comedian",
    Occupation.MUSICIAN: "Musician",
    Occupation.IT: "Information Technology Person",
    Occupation.BUSINESSMAN: "Businessman",
    Occupation.MODEL: "Model",
    Occupation.ACTOR: "Actor",
    Occupation.SOCIALITE: "Socialite",
    Occupation.TV_HOST: "Television Host",
    Occupation.JOURNALIST: "Journalist",
    Occupation.BLOGGER: "Blogger",
    Occupation.ECONOMIST: "Economist",
    Occupation.ARTIST: "Artist",
    Occupation.POLITICIAN: "Politician",
    Occupation.PHOTOGRAPHER: "Photographer",
    Occupation.WRITER: "Writer",
    Occupation.ASTRONAUT: "Astronaut",
    Occupation.ENGINEER: "Engineer",
    Occupation.STUDENT: "Student",
    Occupation.TEACHER: "Teacher",
    Occupation.OTHER: "Other",
}


@dataclass(frozen=True)
class Place:
    """One entry of the "places lived" list.

    Google+ geocoded free-text place names onto the map; the simulator
    stores the resolved coordinates directly. The last entry of the list
    is taken as the user's current location (Section 4 of the paper).
    """

    name: str
    latitude: float
    longitude: float
    country: str  # ISO 3166-1 alpha-2 code

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude}")


@dataclass(frozen=True)
class ContactInfo:
    """A work or home contact block; sharing a phone marks a tel-user."""

    phone: str | None = None
    email: str | None = None
    address: str | None = None

    def has_phone(self) -> bool:
        return bool(self.phone)


@dataclass
class FieldValue:
    """A profile field value together with its privacy setting."""

    value: Any
    privacy: FieldPrivacy = PUBLIC

    def is_public(self) -> bool:
        return self.privacy.is_public()


@dataclass
class UserProfile:
    """A Google+ user profile.

    Field values live in ``fields``, keyed by the machine names of
    :data:`repro.platform.fields.FIELD_SPECS`. The mandatory name field is
    stored as a plain attribute because it cannot be hidden or removed.
    ``lists_public`` models the per-user option to hide the "have user in
    circles" / "in user's circles" lists from the profile page.
    """

    user_id: int
    name: str
    fields: dict[str, FieldValue] = dataclass_field(default_factory=dict)
    lists_public: bool = True

    def __post_init__(self) -> None:
        for key in self.fields:
            if key not in FIELDS_BY_KEY or key == "name":
                raise ValueError(f"unknown profile field: {key!r}")

    def set_field(self, key: str, value: Any, privacy: FieldPrivacy = PUBLIC) -> None:
        """Set or replace an optional field."""
        if key not in FIELDS_BY_KEY or key == "name":
            raise ValueError(f"unknown profile field: {key!r}")
        self.fields[key] = FieldValue(value, privacy)

    def get_public(self, key: str) -> Any | None:
        """Return the value of a field if publicly visible, else None."""
        if key == "name":
            return self.name
        entry = self.fields.get(key)
        if entry is not None and entry.is_public():
            return entry.value
        return None

    def public_field_keys(self) -> list[str]:
        """Keys of all publicly visible fields, the mandatory name included."""
        keys = ["name"]
        keys.extend(k for k, v in self.fields.items() if v.is_public())
        return keys

    def count_public_fields(self, include_contacts: bool = False) -> int:
        """Number of publicly shared fields.

        Figures 2 and 8 of the paper count shared fields *excluding* the
        work/home contact blocks; pass ``include_contacts=True`` to count
        all seventeen attributes instead.
        """
        keys = self.public_field_keys()
        if include_contacts:
            return len(keys)
        countable = set(COUNTABLE_FIELD_KEYS)
        return sum(1 for k in keys if k in countable)

    def shares_phone_publicly(self) -> bool:
        """True when a public work or home contact block carries a phone.

        These are the paper's "tel-users" (Section 3.2).
        """
        for key in ("work_contact", "home_contact"):
            value = self.get_public(key)
            if isinstance(value, ContactInfo) and value.has_phone():
                return True
        return False

    def current_place(self) -> Place | None:
        """Last publicly listed place lived, i.e. the current location."""
        places = self.get_public("places_lived")
        if places:
            return places[-1]
        return None


class ProfileSnapshot(UserProfile):
    """A read-only copy of a profile whose truth lives elsewhere.

    The service hands these out for base users it keeps as columns: a
    write to the copy could never reach a page, so every write raises
    ``TypeError`` instead of being lost.  It compares equal to a
    :class:`UserProfile` with the same content; ``copy.copy`` and
    pickling yield a plain, writable :class:`UserProfile`.
    """

    def __init__(self, profile: UserProfile) -> None:
        self.__dict__.update(
            vars(profile), fields=MappingProxyType(profile.fields)
        )

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError(
            f"profile {self.user_id} is a read-only snapshot; write through "
            "GooglePlusService.update_field / set_lists_public"
        )

    __setattr__ = __delattr__ = set_field = _read_only

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UserProfile):
            return NotImplemented
        return (self.user_id, self.name, self.fields, self.lists_public) == (
            other.user_id, other.name, other.fields, other.lists_public
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self) -> tuple[Any, ...]:
        return UserProfile, (
            self.user_id, self.name, dict(self.fields), self.lists_public
        )
