"""Seeded inputs and the bit-for-bit oracle.

Every input comes from the ``--seed`` argument and is generated before
timing starts: the request payloads, which requests masquerade, the drift
schedule and the order of the exponential arrival gaps.  The program
under test receives only these generated requests.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.service.fleet import FleetSimulator
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    DriftReport,
    DriftResponse,
)

#: Windows per request and context (8 windows per request in total).
WINDOWS_PER_CONTEXT = 4

#: Share of requests that carry another user's windows (zero-effort
#: masquerade: the attacker simply uses the victim's phone).
MASQUERADE_SHARE = 0.25

#: Fresh windows per context in one drift report.
DRIFT_WINDOWS_PER_CONTEXT = 16


def input_rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per input stream of one seed."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


@dataclass
class Batch:
    """Authenticate requests with the ground truth and the twin's answers.

    ``genuine[i]`` says whether request *i* carries its own user's windows
    (a correct decision accepts them) or another user's (a correct
    decision rejects them).
    """

    requests: list[AuthenticateRequest]
    genuine: np.ndarray
    refs: list[AuthenticationResponse] | None = None

    @property
    def windows(self) -> int:
        return sum(len(request.features) for request in self.requests)


def authenticate_requests(
    simulator: FleetSimulator, rng: np.random.Generator, user_indices: np.ndarray
) -> Batch:
    """One request per listed user; a seeded share masquerades."""
    users = simulator.users
    noise = simulator.config.window_noise
    genuine = rng.random(len(user_indices)) >= MASQUERADE_SHARE
    requests = []
    for index, owner in zip(user_indices, genuine):
        source = int(index)
        if not owner:
            source = (source + 1 + int(rng.integers(len(users) - 1))) % len(users)
        matrix = users[source].sample_windows(
            WINDOWS_PER_CONTEXT, noise, rng, simulator.feature_names
        )
        requests.append(
            AuthenticateRequest(
                user_id=users[int(index)].user_id, features=matrix.values, contexts=None
            )
        )
    return Batch(requests, genuine)


def fleet_frames(simulator: FleetSimulator, seed: int, count: int) -> list[Batch]:
    """*count* distinct frames, each of every user once (in roster order)."""
    rng = input_rng(seed, "fleet-frames")
    everyone = np.arange(len(simulator.users))
    return [authenticate_requests(simulator, rng, everyone) for _ in range(count)]


def device_requests(simulator: FleetSimulator, seed: int, count: int) -> Batch:
    """*count* single-user requests for randomly chosen users."""
    rng = input_rng(seed, "device-requests")
    chosen = rng.integers(len(simulator.users), size=count)
    return authenticate_requests(simulator, rng, chosen)


def drift_schedule(
    simulator: FleetSimulator, seed: int, cycles: int, per_cycle: int
) -> list[list[DriftReport]]:
    """Per cycle, drift reports for *per_cycle* distinct users.

    The fresh windows follow the user's enrolled behaviour, so decisions
    after the retrain stay as accurate as before and a run's accuracy
    does not depend on how many cycles it completed.
    """
    rng = input_rng(seed, "drift")
    users = simulator.users
    schedule = []
    for _ in range(cycles):
        chosen = rng.choice(len(users), size=per_cycle, replace=False)
        schedule.append(
            [
                DriftReport(
                    user_id=users[int(index)].user_id,
                    matrix=users[int(index)].sample_windows(
                        DRIFT_WINDOWS_PER_CONTEXT,
                        simulator.config.window_noise,
                        rng,
                        simulator.feature_names,
                    ),
                )
                for index in chosen
            ]
        )
    return schedule


def arrival_offsets(keys: np.ndarray, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets with exponential gaps over *duration* s at *rate*/s.

    The ``round(rate * duration)`` gaps are the stratified quantiles of
    the exponential distribution, put in the order of the seeded *keys*
    and scaled to fill *duration* exactly.  Every schedule therefore has
    the same gap distribution and the nominal rate, and only the order
    of the gaps depends on the seed, so the run-to-run spread reflects
    the system rather than how bursty one sample of arrivals happened to
    be.
    """
    count = max(1, min(len(keys), int(round(rate * duration))))
    quantiles = (np.arange(count) + 0.5) / count
    gaps = -np.log1p(-quantiles)[np.argsort(keys[:count])]
    gaps *= duration / gaps.sum()
    return np.concatenate(([0.0], np.cumsum(gaps)[:-1]))


# --------------------------------------------------------------------- #
# oracle
# --------------------------------------------------------------------- #


def _same_array(left: np.ndarray, right: np.ndarray) -> bool:
    return (
        left.dtype == right.dtype
        and left.shape == right.shape
        and left.tobytes() == right.tobytes()
    )


def same_decision(response, reference: AuthenticationResponse) -> bool:
    """Bit-for-bit: scores, accepted, model contexts and model version."""
    return (
        isinstance(response, AuthenticationResponse)
        and response.user_id == reference.user_id
        and _same_array(np.asarray(response.scores), np.asarray(reference.scores))
        and _same_array(np.asarray(response.accepted), np.asarray(reference.accepted))
        and tuple(response.result.model_contexts) == tuple(reference.result.model_contexts)
        and response.model_version == reference.model_version
    )


def same_drift(response, reference: DriftResponse) -> bool:
    return (
        isinstance(response, DriftResponse)
        and response.user_id == reference.user_id
        and response.previous_version == reference.previous_version
        and response.new_version == reference.new_version
    )


def correct_windows(response: AuthenticationResponse, genuine: bool) -> int:
    """Windows decided correctly: owner accepted, masquerader rejected."""
    accepted = np.asarray(response.accepted, dtype=bool)
    return int(np.count_nonzero(accepted if genuine else ~accepted))
