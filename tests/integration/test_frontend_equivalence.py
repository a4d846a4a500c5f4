"""Frontend micro-batched decisions == per-window authenticator decisions.

The acceptance bar for the micro-batching frontend: coalescing many users'
authenticate requests into one fused/vectorized pass must not change a
single decision relative to the seed's per-window
:meth:`~repro.core.authenticator.ContextualAuthenticator.authenticate`
path — across every classifier family the cloud server can train.

Accept/reject decisions are bit-for-bit identical for *all* families.
Confidence scores are bit-for-bit identical for every family whose scoring
is batch-size invariant (the paper's linear kernel ridge in both solvers,
linear SVM, logistic/linear regression, random forests); non-linear kernel
ridge computes its kernel matrix with BLAS, whose accumulation order varies
with batch size, so its scores agree only to float rounding (asserted to
1e-12 here).
"""

import numpy as np
import pytest

from repro.core.authenticator import ContextualAuthenticator
from repro.devices.cloud import AuthenticationServer
from repro.features.vector import FeatureMatrix
from repro.ml.forest import RandomForestClassifier
from repro.ml.kernel_ridge import KernelRidgeClassifier
from repro.ml.linear import LinearRegressionClassifier, LogisticRegressionClassifier
from repro.ml.svm import LinearSVMClassifier
from repro.sensors.types import CoarseContext
from repro.service.frontend import ServiceFrontend
from repro.service.gateway import AuthenticationGateway
from repro.service.protocol import AuthenticateRequest, AuthenticationResponse

#: (family id, classifier factory, scores bit-exact?).
FAMILIES = [
    ("krr-linear-primal", lambda: KernelRidgeClassifier(ridge=1.0, kernel="linear", solver="primal"), True),
    ("krr-linear-dual", lambda: KernelRidgeClassifier(ridge=1.0, kernel="linear", solver="dual"), True),
    ("krr-rbf", lambda: KernelRidgeClassifier(ridge=1.0, kernel="rbf", gamma=0.3), False),
    ("linear-svm", lambda: LinearSVMClassifier(n_iterations=120), True),
    ("logistic-regression", lambda: LogisticRegressionClassifier(), True),
    ("linear-regression", lambda: LinearRegressionClassifier(), True),
    ("random-forest", lambda: RandomForestClassifier(n_estimators=10, max_depth=6, random_state=3), True),
]

USERS = {"owner": 0.0, "peer": 3.0, "rival": 5.0}


def matrix(uid, mean, n=25, d=6, context="stationary", seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        values=rng.normal(mean, 1.0, size=(n, d)),
        feature_names=[f"f{i}" for i in range(d)],
        user_ids=[uid] * n,
        contexts=[context] * n,
    )


def build_frontend(classifier_factory):
    gateway = AuthenticationGateway(
        server=AuthenticationServer(seed=2, classifier_factory=classifier_factory)
    )
    for seed_offset, (uid, mean) in enumerate(USERS.items()):
        for context in ("stationary", "moving"):
            gateway.enroll(
                uid,
                matrix(uid, mean, context=context, seed=seed_offset + 1),
                train=False,
            )
    for uid in USERS:
        gateway.train(uid)
    return ServiceFrontend(gateway)


def probe_requests(rng):
    """A fleet-shaped burst: several users, repeats, mixed contexts."""
    requests = []
    for uid, mean in USERS.items():
        features = rng.normal(mean, 2.0, size=(40, 6))
        contexts = tuple(
            CoarseContext.MOVING if i % 3 == 0 else CoarseContext.STATIONARY
            for i in range(40)
        )
        requests.append(
            AuthenticateRequest(user_id=uid, features=features, contexts=contexts)
        )
    # Repeat requests for one user so coalescing spans duplicates too.
    requests.append(
        AuthenticateRequest(
            user_id="owner",
            features=rng.normal(0.0, 2.0, size=(7, 6)),
            contexts=(CoarseContext.STATIONARY,) * 7,
        )
    )
    return requests


@pytest.mark.parametrize(
    "family, classifier_factory, scores_bitexact",
    FAMILIES,
    ids=[family for family, _, _ in FAMILIES],
)
def test_micro_batched_decisions_match_per_window_path(
    family, classifier_factory, scores_bitexact
):
    frontend = build_frontend(classifier_factory)
    requests = probe_requests(np.random.default_rng(17))
    responses = frontend.submit_many(requests)
    assert frontend.telemetry.counter_value("frontend.coalesced_batches") == 1
    for request, response in zip(requests, responses):
        assert isinstance(response, AuthenticationResponse), (
            f"{family}: {response}"
        )
        bundle = frontend.gateway.registry.bundle_for(request.user_id)
        authenticator = ContextualAuthenticator(bundle)
        for index in range(len(request.features)):
            decision = authenticator.authenticate(
                request.features[index], request.contexts[index]
            )
            assert decision.accepted == bool(response.accepted[index]), (
                f"{family}: decision flip at window {index} for "
                f"{request.user_id!r}"
            )
            assert decision.context == response.result.model_contexts[index]
            if scores_bitexact:
                assert decision.confidence_score == response.scores[index], (
                    f"{family}: score drift at window {index} for "
                    f"{request.user_id!r}"
                )
            else:
                assert decision.confidence_score == pytest.approx(
                    response.scores[index], abs=1e-12
                )


def test_fused_pass_actually_engages_for_affine_families():
    """The paper's configuration must take the fused path, not the fallback."""
    frontend = build_frontend(
        lambda: KernelRidgeClassifier(ridge=1.0, kernel="linear", solver="auto")
    )
    bundle = frontend.gateway.registry.bundle_for("owner")
    for model in bundle.models.values():
        rule = model.decision_rule()
        assert rule is not None
        # The rule reproduces the model's own scoring bit-for-bit.
        rows = np.random.default_rng(5).normal(0.0, 2.0, size=(9, 6))
        raw = (
            np.einsum("ij,j->i", (rows - rule.mean) / rule.scale - rule.x_offset, rule.coef)
            + rule.y_offset
        )
        scores, accepted = model.batch_decisions(rows)
        np.testing.assert_array_equal(rule.sign * raw, scores)
        np.testing.assert_array_equal(
            raw >= 0.0 if rule.accept_on_nonnegative else raw < 0.0, accepted
        )


def test_forest_models_have_no_affine_rule():
    frontend = build_frontend(
        lambda: RandomForestClassifier(n_estimators=5, max_depth=4, random_state=1)
    )
    bundle = frontend.gateway.registry.bundle_for("owner")
    for model in bundle.models.values():
        assert model.decision_rule() is None


@pytest.mark.parametrize(
    "family, classifier_factory",
    [(family, factory) for family, factory, _ in FAMILIES],
    ids=[family for family, _, _ in FAMILIES],
)
def test_columnar_door_matches_the_object_door(family, classifier_factory):
    """The serving-table door scores fused and fallback slots bit for bit."""
    from repro.service.protocol import AuthenticateColumns

    frontend = build_frontend(classifier_factory)
    requests = probe_requests(np.random.default_rng(19))
    columns = AuthenticateColumns(
        user_ids=tuple(request.user_id for request in requests),
        features=np.vstack([request.features for request in requests]),
        lengths=np.array([len(request.features) for request in requests]),
        context_codes=np.concatenate([request.context_codes for request in requests]),
    )
    for _ in range(2):  # the cold flush builds the table, the warm one reuses it
        result = frontend.submit_columns(columns)
        assert not result.errors
        for expected, actual in zip(frontend.submit_many(requests), result.responses()):
            assert actual.scores.tobytes() == expected.scores.tobytes(), family
            assert actual.accepted.tobytes() == expected.accepted.tobytes(), family
            assert actual.result.model_contexts == expected.result.model_contexts
            assert actual.model_version == expected.model_version
