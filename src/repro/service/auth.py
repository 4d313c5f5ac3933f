"""Token auth, per-client quotas and submit rate limits for the service.

The sweep service's listeners (Unix socket and TCP alike) are
multi-tenant once an :class:`AuthPolicy` is attached: every request may
carry a ``"token"`` key, the policy maps it to a :class:`ClientAccount`
(or refuses it), and submissions are admitted against that account's
:class:`Quota` — a cap on concurrently active jobs, a cap on points per
job, and a token-bucket submit rate.  Refusals are values, not
exceptions: :meth:`AuthPolicy.authenticate` and
:meth:`AuthPolicy.admit_submit` return a ``deny`` or
``quota-exceeded`` frame (:mod:`repro.service.frames`) that the server
sends as it is and the client surfaces as a typed exception.

Fairness between admitted tenants is the queue's business, not the
policy's: see :class:`~repro.service.jobs.JobQueue`'s round-robin.

The policy file (``serve --auth policy.json``)::

    {
      "allow_anonymous": false,
      "tokens": {
        "s3cret-alice": {"name": "alice", "max_active_jobs": 4,
                          "max_points": 4096,
                          "submit_rate_per_s": 5, "submit_burst": 10},
        "s3cret-bob":   {"name": "bob"},
        "s3cret-ops":   {"name": "ops", "admin": true}
      }
    }

Omitted quota fields mean "unlimited"; ``"admin": true`` marks an
operator account that may cancel any tenant's jobs and watch the
unscoped event feed; an optional ``"anonymous"`` object is the quota of
untokened clients when ``allow_anonymous`` is true.  The file is
decoded strictly by :mod:`repro.wire` (:class:`AuthPolicyFile`): an
unknown key, a string where a bool belongs or a fractional count is a
:class:`~repro.errors.ConfigurationError` naming the field, never a
silent default.  Rate limiting uses the injected
clock (the registry's monotonic clock by default), so tests drive it
with :class:`~repro.obs.ManualClock`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.errors import ConfigurationError
from repro.service.frames import Deny, QuotaExceeded
from repro.wire import Wire

__all__ = ["Quota", "ClientAccount", "AuthPolicy"]


@dataclass(frozen=True)
class Quota(Wire):
    """Per-client admission limits; ``None`` fields are unlimited."""

    #: Max jobs queued or running at once.
    max_active_jobs: int | None = None
    #: Max grid points a single submission may expand to.
    max_points: int | None = None
    #: Sustained submissions per second (token bucket).
    submit_rate_per_s: float | None = None
    #: Bucket capacity: submissions a quiet client may burst.
    submit_burst: int = 2

    def __post_init__(self) -> None:
        if self.max_active_jobs is not None and self.max_active_jobs < 1:
            raise ConfigurationError(
                f"max_active_jobs must be >= 1, got {self.max_active_jobs}"
            )
        if self.max_points is not None and self.max_points < 1:
            raise ConfigurationError(
                f"max_points must be >= 1, got {self.max_points}"
            )
        if self.submit_rate_per_s is not None and self.submit_rate_per_s <= 0:
            raise ConfigurationError(
                f"submit_rate_per_s must be > 0, got {self.submit_rate_per_s}"
            )
        if self.submit_burst < 1:
            raise ConfigurationError(
                f"submit_burst must be >= 1, got {self.submit_burst}"
            )


@dataclass(frozen=True)
class ClientAccount:
    """One authenticated tenant: a name, its quota, and its powers."""

    name: str
    quota: Quota = Quota()
    #: Operator accounts: may cancel any tenant's jobs and watch the
    #: unscoped service-wide event feed.  Ordinary tenants only see and
    #: control their own jobs.
    admin: bool = False


@dataclass(frozen=True, kw_only=True)
class AuthTokenEntry(Quota):
    """One ``tokens`` entry of the policy file: the account's name and
    powers beside its :class:`Quota` fields."""

    name: str
    admin: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.name:
            raise ConfigurationError("auth token entry needs a non-empty name")

    def account(self) -> ClientAccount:
        quota = Quota(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(Quota)}
        )
        return ClientAccount(name=self.name, quota=quota, admin=self.admin)


@dataclass(frozen=True)
class AuthPolicyFile(Wire):
    """The ``serve --auth`` JSON file, as :mod:`repro.wire` decodes it."""

    allow_anonymous: bool = False
    tokens: Mapping[str, AuthTokenEntry] = field(default_factory=dict)
    #: Quota of untokened clients when ``allow_anonymous`` is true.
    anonymous: Quota | None = None


class _Bucket:
    """Token-bucket state for one client's submit rate."""

    __slots__ = ("tokens", "updated_at")

    def __init__(self, tokens: float, updated_at: float) -> None:
        self.tokens = tokens
        self.updated_at = updated_at


class AuthPolicy:
    """Maps tokens to accounts and admits submissions against quotas.

    Parameters
    ----------
    tokens:
        ``token -> ClientAccount``.  Tokens are opaque strings; account
        names are what jobs, quotas, and fair-share scheduling key on.
    allow_anonymous:
        Accept requests without a token as the ``anonymous`` account
        (with ``anonymous_quota``).  Off by default: attaching a policy
        means untokened clients get a ``deny`` frame.
    anonymous_quota:
        Quota for the anonymous account when allowed.
    clock:
        Monotonic time source for rate limiting; defaults to the
        metrics registry's clock (injectable in tests).
    """

    def __init__(
        self,
        tokens: Mapping[str, ClientAccount],
        *,
        allow_anonymous: bool = False,
        anonymous_quota: Quota | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._accounts = dict(tokens)
        names = [account.name for account in self._accounts.values()]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                "auth policy maps two tokens to the same account name; "
                "give each tenant one token"
            )
        if "anonymous" in names:
            raise ConfigurationError(
                'account name "anonymous" is reserved for untokened clients'
            )
        self.allow_anonymous = bool(allow_anonymous)
        self._anonymous = ClientAccount(
            name="anonymous",
            quota=anonymous_quota if anonymous_quota is not None else Quota(),
        )
        self._clock = clock
        self._buckets: dict[str, _Bucket] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_file(
        cls,
        path: str | Path,
        *,
        clock: Callable[[], float] | None = None,
    ) -> "AuthPolicy":
        """Load a policy from the ``serve --auth`` JSON file."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigurationError(f"auth policy file not found: {path}")
        except ValueError as exc:
            raise ConfigurationError(
                f"auth policy file {path} is not valid JSON: {exc}"
            ) from exc
        policy = AuthPolicyFile.from_dict(payload)
        return cls(
            {token: entry.account() for token, entry in policy.tokens.items()},
            allow_anonymous=policy.allow_anonymous,
            anonymous_quota=policy.anonymous,
            clock=clock,
        )

    # ------------------------------------------------------------------
    def authenticate(self, token: str | None) -> "ClientAccount | Deny":
        """Resolve a request's token; a ``deny`` frame refuses it."""
        if token is None:
            if self.allow_anonymous:
                return self._anonymous
            return Deny(
                reason="unauthenticated",
                message=(
                    "this service requires a client token; pass one with "
                    '--token (the request\'s "token" key)'
                ),
            )
        account = self._accounts.get(token)
        if account is None:
            return Deny(
                reason="unknown-token",
                message="unrecognised client token",
            )
        return account

    def admit_submit(
        self, account: ClientAccount, *, points: int, active_jobs: int
    ) -> "QuotaExceeded | None":
        """Admit one submission, or say exactly why not.

        Checks (in order): concurrently active jobs, points per job,
        then the token bucket — the bucket is only drained by admitted
        submissions, so a client bouncing off its active-jobs cap does
        not also burn its rate budget.
        """
        quota = account.quota
        if (
            quota.max_active_jobs is not None
            and active_jobs >= quota.max_active_jobs
        ):
            return QuotaExceeded(
                reason="active-jobs",
                message=(
                    f"client {account.name!r} already has {active_jobs} "
                    f"active job(s) (limit {quota.max_active_jobs}); wait "
                    "for one to finish or cancel it"
                ),
            )
        if quota.max_points is not None and points > quota.max_points:
            return QuotaExceeded(
                reason="points-per-job",
                message=(
                    f"submission expands to {points} point(s), over client "
                    f"{account.name!r}'s per-job limit of {quota.max_points}; "
                    "split the grid"
                ),
            )
        if quota.submit_rate_per_s is not None:
            now = self._now()
            bucket = self._buckets.get(account.name)
            if bucket is None:
                bucket = _Bucket(float(quota.submit_burst), now)
                self._buckets[account.name] = bucket
            refill = (now - bucket.updated_at) * quota.submit_rate_per_s
            bucket.tokens = min(
                float(quota.submit_burst), bucket.tokens + max(0.0, refill)
            )
            bucket.updated_at = now
            if bucket.tokens < 1.0:
                wait = (1.0 - bucket.tokens) / quota.submit_rate_per_s
                return QuotaExceeded(
                    reason="submit-rate",
                    message=(
                        f"client {account.name!r} is over its submit rate of "
                        f"{quota.submit_rate_per_s:g}/s"
                    ),
                    retry_after_s=round(wait, 6),
                )
            bucket.tokens -= 1.0
        return None

    def _now(self) -> float:
        if self._clock is None:
            from repro.obs import get_registry

            self._clock = get_registry().clock
        return self._clock()
