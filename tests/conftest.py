"""Shared fixtures: small synthetic populations, datasets and deployments.

Everything here is session-scoped and deterministic so the full suite stays
fast while individual tests remain independent of execution order.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.config import SmarterYouConfig
from repro.core.context import ContextDetector
from repro.core.system import SmarterYou
from repro.datasets.collection import collect_free_form_dataset, collect_lab_context_dataset
from repro.datasets.population import build_study_population
from repro.devices.cloud import AuthenticationServer
from repro.sensors.behavior import sample_profile
from repro.sensors.generators import SensorStreamGenerator
from repro.sensors.types import Context, DeviceType


@pytest.fixture(scope="session")
def population():
    """A five-user synthetic population."""
    return build_study_population(n_users=5, seed=123)


@pytest.fixture(scope="session")
def free_form_dataset(population):
    """A small free-form dataset: both devices, both coarse contexts."""
    return collect_free_form_dataset(
        population, session_duration=72.0, sessions_per_context=1, seed=9
    )


@pytest.fixture(scope="session")
def lab_dataset(population):
    """A small lab dataset covering all four fine contexts (phone only)."""
    return collect_lab_context_dataset(population, session_duration=60.0, seed=10)


@pytest.fixture(scope="session")
def profile():
    """A single behavioural profile used by sensor-level tests."""
    return sample_profile("alice", seed=1)


@pytest.fixture(scope="session")
def second_profile():
    """A different behavioural profile (for impostor scenarios)."""
    return sample_profile("bob", seed=2)


@pytest.fixture(scope="session")
def moving_recording(profile):
    """A 30-second smartphone recording of the user walking (all sensors)."""
    generator = SensorStreamGenerator(profile, seed=5)
    return generator.generate(DeviceType.SMARTPHONE, Context.MOVING, duration=30.0)


@pytest.fixture(scope="session")
def stationary_recording(profile):
    """A 30-second smartphone recording of the user sitting (all sensors)."""
    generator = SensorStreamGenerator(profile, seed=6)
    return generator.generate(DeviceType.SMARTPHONE, Context.HANDHELD_STATIC, duration=30.0)


@pytest.fixture(scope="session")
def small_config():
    """A SmarterYou configuration scaled for fast tests."""
    return SmarterYouConfig(target_enrollment_windows=10)


@pytest.fixture(scope="session")
def deployed_system(population, free_form_dataset, lab_dataset, small_config):
    """A fully trained SmarterYou deployment protecting the first user."""
    owner = population[0]
    phone_matrix = lab_dataset.device_matrix(
        DeviceType.SMARTPHONE, small_config.window_seconds, spec=small_config.phone_feature_spec
    )
    detector = ContextDetector(spec=small_config.phone_feature_spec)
    detector.fit(phone_matrix, exclude_user=owner.user_id)
    server = AuthenticationServer(seed=99)
    system = SmarterYou(config=small_config, server=server, context_detector=detector)
    system.contribute_other_users(free_form_dataset, exclude=owner.user_id)
    system.enroll(owner.user_id, free_form_dataset.sessions_for(owner.user_id))
    return system


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(321)


@pytest.fixture()
def hang_up():
    """POST a body, then reset the socket while the server holds its answer.

    ``hang_up(server, hold, path, body, content_type, counter)`` wraps the
    server's *hold* method so it parks after computing the answer, sends
    the raw request, closes the client socket with an RST (``SO_LINGER``
    0) once the server is parked, releases it, and waits until the
    server's *counter* moves.  Returns the counter's value.
    """

    def hang_up(server, hold, path, body, content_type, counter):
        original = getattr(server, hold)
        parked, release = threading.Event(), threading.Event()

        def held(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                parked.set()
                release.wait(30)

        setattr(server, hold, held)
        try:
            head = (
                f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            with socket.create_connection(("127.0.0.1", server.port)) as client:
                client.sendall(head + body)
                assert parked.wait(30), "the server never reached the held call"
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            release.set()
            deadline = time.monotonic() + 30
            while server.telemetry.counter_value(counter) == 0:
                assert time.monotonic() < deadline, f"{counter} never moved"
                time.sleep(0.01)
            return server.telemetry.counter_value(counter)
        finally:
            release.set()
            delattr(server, hold)

    return hang_up
