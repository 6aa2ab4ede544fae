"""Shared fixtures: ontology, prepared corpora, and concurrency guards.

Two guard layers ride along with every test run:

* ``_thread_and_process_leak_guard`` (session-scoped, autouse) snapshots
  the live non-daemon threads and child processes at session start and
  asserts nothing leaked by session end — the regression guard for the
  worker-thread and shard-worker-process leak class fixed in PRs 3/5.
* the ``lockwatch`` marker opts a test into the runtime lock-order
  auditor (:mod:`repro.testing.lockwatch`): every lock created during
  the test is watched, and the test fails on acquisition-order cycles
  (deadlock hazards) or lock holds above the threshold.

The ``memwatch`` fixture is the numeric-memory counterpart
(:mod:`repro.testing.memwatch`): requesting it turns on
``@array_contract`` enforcement and tracemalloc accounting for the
test, so dtype drift fails at the entrypoint and allocation budgets
(`assert_peak_below`) are checkable.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading

import pytest

from repro.eval.corpus import EvalCorpus, build_corpus
from repro.semantics.concepts import ConceptGraph
from repro.semantics.lexicon import Lexicon
from repro.semantics.ontology.build import default_ontology
from repro.testing.lockwatch import LockWatcher
from repro.testing.memwatch import MemWatcher


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "lockwatch: install the runtime lock-order auditor for this test "
        "(fails on lock-order cycles or over-threshold lock holds)",
    )


@pytest.fixture(scope="session")
def ontology() -> tuple[ConceptGraph, Lexicon]:
    """The shared concept graph and lexicon."""
    return default_ontology()


@pytest.fixture(scope="session")
def graph(ontology: tuple[ConceptGraph, Lexicon]) -> ConceptGraph:
    """The shared concept graph."""
    return ontology[0]


@pytest.fixture(scope="session")
def lexicon(ontology: tuple[ConceptGraph, Lexicon]) -> Lexicon:
    """The shared lexicon."""
    return ontology[1]


@pytest.fixture(scope="session")
def small_corpus() -> EvalCorpus:
    """A small fully-prepared Saint Louis corpus (600 POIs), built once."""
    return build_corpus("SL", seed=7, count=600)


@pytest.fixture(scope="session")
def tiny_corpus() -> EvalCorpus:
    """A tiny Santa Barbara corpus (200 POIs) for faster integration tests."""
    return build_corpus("SB", seed=11, count=200)


@contextlib.contextmanager
def _plugged(batcher):
    """Keep ``batcher``'s dispatcher busy for the ``with`` body.

    The dispatcher batches what queued while it was executing, so a
    test assembles a batch by making it execute something: the plug, a
    first item under a key of its own whose ``run_batch`` blocks until
    the body exits. Everything the body submits is then waiting when the
    dispatcher comes back. Takes a ``MicroBatcher`` or a coalescer; the
    plug shows in ``stats`` as one request and one batch of one.
    """
    batcher = getattr(batcher, "_batcher", batcher)
    inner = batcher._run_batch
    plug = object()
    entered, release = threading.Event(), threading.Event()

    def run_batch(key, items, deadline):
        if key is not plug:
            return inner(key, items, deadline)
        entered.set()
        release.wait(30)
        return items

    batcher._run_batch = run_batch
    future = batcher.submit(plug, None)
    assert entered.wait(5), "the dispatcher never picked the plug up"
    try:
        yield
    finally:
        release.set()
        future.result(timeout=5)
        batcher._run_batch = inner


@pytest.fixture
def plugged():
    """The :func:`_plugged` context manager, for tests that need the
    coalescer to form a batch deterministically."""
    return _plugged


# ----------------------------------------------------------------------
# concurrency guards
# ----------------------------------------------------------------------


def _live_nondaemon_threads() -> set[threading.Thread]:
    return {
        t for t in threading.enumerate()
        if t.is_alive() and not t.daemon
    }


@pytest.fixture(scope="session", autouse=True)
def _thread_and_process_leak_guard():
    """Fail the session if tests leak non-daemon threads or child processes.

    Whatever starts them (the HNSW build pool's workers are child
    processes, servers and WAL flushers own threads) must be closed by
    the tests that open it; a leak here means some test forgot, and
    every later test pays for it (fork-safety of build pools, slow
    interpreter shutdown, orphaned workers).
    """
    threads_before = _live_nondaemon_threads()
    yield
    leaked_threads = _live_nondaemon_threads() - threads_before
    leaked_children = [
        proc for proc in multiprocessing.active_children()
        if proc.is_alive()
    ]
    problems = []
    if leaked_threads:
        problems.append(
            "non-daemon threads leaked past the test session: "
            + ", ".join(sorted(t.name for t in leaked_threads))
        )
    if leaked_children:
        problems.append(
            "child processes leaked past the test session: "
            + ", ".join(sorted(p.name for p in leaked_children))
        )
    if problems:
        pytest.fail("; ".join(problems))


@pytest.fixture(autouse=True)
def _lockwatch(request: pytest.FixtureRequest):
    """Marker-gated runtime lock-order auditor (see module docstring).

    Activated by ``@pytest.mark.lockwatch`` (or a module-level
    ``pytestmark``). Locks created *before* the test (session fixtures,
    module singletons) predate the patch and are not watched.
    """
    if request.node.get_closest_marker("lockwatch") is None:
        yield None
        return
    watcher = LockWatcher()
    watcher.install()
    try:
        yield watcher
    finally:
        watcher.uninstall()
    report = watcher.report()
    if report:
        pytest.fail(f"lockwatch recorded hazards:\n{report}")


@pytest.fixture
def memwatch():
    """Numeric-memory auditor: contracts enforced, allocations tracked.

    Yields a watching :class:`repro.testing.memwatch.MemWatcher`; any
    ``@array_contract`` violation inside the test raises immediately,
    and the test can assert allocation budgets via
    ``memwatch.assert_peak_below(...)`` / sharing via
    ``memwatch.assert_shares_memory(...)``.
    """
    watcher = MemWatcher()
    with watcher.watching():
        yield watcher
