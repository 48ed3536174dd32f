"""Exceptions raised by the simulated Google+ platform."""

from __future__ import annotations


class PlatformError(Exception):
    """Base class for all platform-level errors."""


class UnknownUserError(PlatformError, KeyError):
    """Raised when an operation references a user id that does not exist."""

    def __init__(self, user_id: int):
        super().__init__(f"unknown user id: {user_id}")
        self.user_id = user_id


class SignupClosedError(PlatformError):
    """Raised when signing up without an invitation during the field trial."""


class AlreadyRegisteredError(PlatformError):
    """Raised when a user id is registered twice."""

    def __init__(self, user_id: int):
        super().__init__(f"user id already registered: {user_id}")
        self.user_id = user_id


class CircleLimitError(PlatformError):
    """Raised when a non-whitelisted user exceeds the out-circle size cap."""

    def __init__(self, user_id: int, limit: int):
        super().__init__(
            f"user {user_id} reached the out-circle limit of {limit} contacts"
        )
        self.user_id = user_id
        self.limit = limit


class UnknownCircleError(PlatformError, KeyError):
    """Raised when referencing a circle name a user does not own."""

    def __init__(self, user_id: int, circle: str):
        super().__init__(f"user {user_id} has no circle named {circle!r}")
        self.user_id = user_id
        self.circle = circle
