"""``SearchParams``: one search request, declared once.

* the value itself — what ``SearchParams.of`` accepts, when two
  searches may share a batch;
* the acceptance made executable — no function outside the value and
  the index kernels names a search knob in its signature;
* the untrusted edge — every documented ``/search`` knob is validated
  where the request is built (400 before anything is enqueued), and no
  body drawn from the filter grammar can make the server answer 500 or
  emit non-JSON. The same holds for ``/query``, ``/upsert``,
  ``/set_payload``, ``/admin/save``, ``/admin/load`` and the
  ``X-Repro-Deadline-Ms`` header.
"""

from __future__ import annotations

import ast
import contextlib
import json
import shutil
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.variants import semask
from repro.serving.batcher import SearchCoalescer
from repro.serving.http import ServingContext, ServingServer
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import Collection, PointStruct, SearchParams
from repro.vectordb.deadline import Deadline
from repro.vectordb.filters import FieldMatch
from repro.vectordb.hnsw import HNSWIndex

DIM = 8
N_POINTS = 50


def _points(n: int = N_POINTS) -> list[PointStruct]:
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((n, DIM)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return [
        PointStruct(
            id=f"p{i}", vector=vecs[i],
            payload={"group": i % 5, "rank": float(i), "city": "SL"},
        )
        for i in range(n)
    ]


QUERY = [0.5, -0.5, 0.25, 0.0, 0.1, 0.3, -0.2, 0.4]


@pytest.fixture(scope="module")
def client():
    with VectorDBClient() as c:
        c.create_collection("pts", dim=DIM, shards=2).upsert(_points())
        # What the write fuzz may change; "pts" stays as the tests left it.
        c.create_collection("scratch", dim=DIM, shards=2).upsert(_points(10))
        yield c


@pytest.fixture(scope="module")
def server(client):
    context = ServingContext(client, own_client=False)
    with ServingServer(context, port=0).start() as srv:
        yield srv


@pytest.fixture(scope="module")
def query_server(tiny_corpus):
    """A server with a refining pipeline behind ``/query``."""
    prepared = tiny_corpus.prepared
    context = ServingContext(
        prepared.client, system=semask(prepared, llm=tiny_corpus.llm),
        default_center=tiny_corpus.city.center, own_client=False,
    )
    with ServingServer(context, port=0).start() as srv:
        yield srv


def _refuse_constant(token: str):
    raise ValueError(f"non-JSON constant {token} in a response body")


def _post(
    base: str, path: str, body: dict | bytes, headers: dict | None = None
) -> tuple[int, dict]:
    """POST ``body`` (bytes go out verbatim); the response must parse as
    *strict* JSON."""
    request = urllib.request.Request(
        base + path,
        data=body if isinstance(body, bytes) else json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:
        status, raw = exc.code, exc.read()
    return status, json.loads(raw, parse_constant=_refuse_constant)


def _enqueued(base: str) -> int:
    with urllib.request.urlopen(base + "/healthz", timeout=30) as response:
        return json.loads(response.read())["search_coalescer"]["requests"]


# ----------------------------------------------------------------------
# the value
# ----------------------------------------------------------------------


class TestSearchParams:
    def test_of_takes_k_plus_keywords_or_a_ready_value(self):
        flt = FieldMatch("group", 2)
        params = SearchParams(5, flt=flt, ef=32)
        assert SearchParams.of(5, {"flt": flt, "ef": 32}) == params
        assert SearchParams.of(params, {}) is params
        with pytest.raises(TypeError):
            SearchParams.of(params, {"exact": True})

    def test_unknown_keyword_is_still_a_type_error(self, client):
        with pytest.raises(TypeError):
            client.search("pts", QUERY, 3, beam=5)
        with pytest.raises(TypeError):
            client.get_collection("pts").search_batch([QUERY], 3, beam=5)

    def test_hashable_exactly_when_the_filter_is(self):
        assert hash(SearchParams(3, flt=FieldMatch("city", "SL"))) == hash(
            SearchParams(3, flt=FieldMatch("city", "SL"))
        )
        with pytest.raises(TypeError):
            hash(SearchParams(3, flt=FieldMatch("city", [1, 2])))

    def test_equal_params_share_a_batch_unequal_never_do(
        self, client, monkeypatch, plugged
    ):
        calls: list[tuple[SearchParams, int]] = []
        real = client.search_batch

        def spy(name, vectors, params, deadline=None):
            calls.append((params, len(vectors)))
            return real(name, vectors, params, deadline)

        monkeypatch.setattr(client, "search_batch", spy)
        flt = FieldMatch("group", 2)
        variants = [
            {}, {"ef": 32}, {"exact": True},
        ]
        coalescer = SearchCoalescer(client, max_batch=64)
        with plugged(coalescer):  # equal keys are certain to meet in the queue
            futures = [
                coalescer.submit("pts", QUERY, 4, flt=flt, **knobs)
                for knobs in variants for _ in range(2)
            ]
        coalescer.close()
        assert all(len(f.result(timeout=5)) == 4 for f in futures)
        assert sorted(calls, key=lambda c: repr(c[0])) == sorted(
            [(SearchParams(4, flt=flt, **knobs), 2) for knobs in variants],
            key=lambda c: repr(c[0]),
        )


def test_no_signature_outside_the_value_and_the_kernels_names_a_knob():
    """ROADMAP's acceptance: a new knob is a ``SearchParams`` field, its
    use in ``collection.py`` and its wire name in ``http.py``."""
    root = Path(repro.__file__).parent
    kernels = {root / "vectordb" / "hnsw.py", root / "vectordb" / "flat.py"}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path in kernels:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            named = {a.arg for a in args} & {"exact", "ef", "rescore_factor"}
            if named:
                offenders.append(
                    (str(path.relative_to(root)), node.lineno, sorted(named))
                )
    assert offenders == []


# ----------------------------------------------------------------------
# the untrusted edge
# ----------------------------------------------------------------------


def _search_body(**overrides) -> dict:
    return {"collection": "pts", "vector": QUERY, "k": 3, **overrides}


class TestSearchEndpoint:
    @pytest.mark.parametrize("path, body", [
        # (at the parent: status)
        ("/search", _search_body(ef=-5)),                      # 200, beam = k
        ("/search", _search_body(ef=0)),                       # 200, default
        ("/search", _search_body(k=float("inf"))),             # 500
        ("/search", _search_body(vector=[float("nan")] * DIM)),  # 200, NaN
        ("/search", _search_body(vector=[float("inf")] * DIM)),  # 200, NaN
        ("/search", _search_body(vector=[1e39] * DIM)),        # 200, NaN
        ("/upsert", {"collection": "pts", "points": [           # 200, stored
            {"id": "bad", "vector": [float("nan")] * DIM},
        ]}),
    ])
    def test_out_of_range_input_is_400_before_anything_is_enqueued(
        self, server, client, path, body
    ):
        before = _enqueued(server.url)
        status, answer = _post(server.url, path, body)
        assert (status, list(answer)) == (400, ["error"])
        assert _enqueued(server.url) == before
        assert len(client.get_collection("pts")) == N_POINTS

    @pytest.mark.parametrize("flt, expected", [
        # unhashable params ride alone — at the parent: 500, the batch
        # runner was handed the private-group placeholder
        ({"match": {"key": "city", "value": [1, 2]}}, 200),
        ({"match": {"key": "city", "value": {"a": 1}}}, 200),
        ({"match": {"key": ["city"], "value": "SL"}}, 400),
        # a null child is not a filter — at the parent: 500 both ways
        ({"must_not": None}, 400),
        ({"should": [None, {"match": {"key": "city", "value": "SL"}}]}, 400),
    ])
    def test_filter_edge_answers_the_same_coalesced_or_not(
        self, server, flt, expected
    ):
        for coalesce in (True, False):
            status, _ = _post(
                server.url, "/search",
                _search_body(filter=flt, coalesce=coalesce),
            )
            assert status == expected

    def test_ef_reaches_the_hnsw_kernel(self, server, monkeypatch):
        # Keep the graph walk: below the threshold a search scans.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        seen = []
        real = HNSWIndex.search_batch

        def spy(self, queries, k, ef=None, predicate=None):
            seen.append(ef)
            return real(self, queries, k, ef=ef, predicate=predicate)

        monkeypatch.setattr(HNSWIndex, "search_batch", spy)
        status, answer = _post(server.url, "/search", _search_body(ef=77))
        assert status == 200 and len(answer["hits"]) == 3
        assert seen == [77, 77]  # one traversal per shard


# Mostly well-formed bodies with one or two fields off the rails: a body
# that is junk everywhere earns its 400 at the first field and tests
# nothing behind it.
_numbers = st.one_of(
    st.integers(-3, 60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("nan"), 1e39, -1e39, 0.5, 10**30]),
)
_scalars = st.one_of(
    st.none(), st.booleans(), _numbers, st.sampled_from(["SL", "", "x"]),
)
_leaves = st.one_of(
    _scalars, _scalars,
    st.lists(_scalars, max_size=3),
    st.dictionaries(st.sampled_from(["a", "lat"]), _scalars, max_size=2),
)
_keys = st.one_of(
    st.sampled_from(["city", "group", "rank", "location"]),
    st.sampled_from(["city", "group", "rank", "location"]),
    _leaves,
)


def _mostly(value, otherwise: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.just(value), st.just(value), otherwise)


def _node(name: str, **fields: st.SearchStrategy) -> st.SearchStrategy:
    return st.fixed_dictionaries({name: st.fixed_dictionaries(fields)})


_filters = st.recursive(
    st.one_of(
        _node("match", key=_keys, value=_leaves),
        _node("in", key=_keys, values=_leaves),
        _node("range", key=_keys, gte=_leaves, lte=_leaves),
        _node("geo_bounding_box", key=_keys, min_lat=_numbers,
              min_lon=_numbers, max_lat=_numbers, max_lon=_leaves),
        _node("geo_radius", key=_keys, lat=_numbers, lon=_numbers,
              radius_km=_leaves),
    ),
    lambda children: st.one_of(
        st.fixed_dictionaries({"must": st.lists(children, max_size=3)}),
        st.fixed_dictionaries({"should": st.lists(children, max_size=3)}),
        st.fixed_dictionaries({"must_not": st.one_of(children, _leaves)}),
    ),
    max_leaves=4,
)
_bodies = st.fixed_dictionaries(
    {
        "collection": _mostly("pts", st.sampled_from(["ghost", 7, None])),
        "vector": _mostly(QUERY, st.one_of(
            st.lists(_numbers, min_size=DIM, max_size=DIM), _leaves,
        )),
        "k": _mostly(3, _leaves),
    },
    optional={
        "filter": _filters,
        "exact": _scalars,
        "ef": _mostly(16, _leaves),
        "rescore_factor": _mostly(2.0, _leaves),
        "coalesce": st.booleans(),
        "with_payload": st.booleans(),
    },
)


@settings(max_examples=150, deadline=None)
@given(body=_bodies)
def test_no_search_body_earns_a_500_or_a_non_json_answer(server, body):
    status, _ = _post(server.url, "/search", body)
    assert status in (200, 400, 404)



# ----------------------------------------------------------------------
# the other routes and the deadline header
# ----------------------------------------------------------------------

#: 2xx, a 4xx, or 504 for a budget that ran out: never a 5xx the client
#: did not ask for.
_HONEST = {200, 400, 404, 504}


class TestStrictRequestJson:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_a_non_json_constant_is_400_and_is_not_stored(
        self, server, client, literal
    ):
        # at the parent: 200 with {"a": NaN} echoed, stored, and served
        # back by every later /search
        status, answer = _post(
            server.url, "/set_payload",
            b'{"collection": "scratch", "id": "p1", "payload": {"a": %s}}'
            % literal.encode(),
        )
        assert (status, list(answer)) == (400, ["error"])
        assert literal in answer["error"]
        assert "a" not in client.get_collection("scratch").retrieve("p1").payload

    @pytest.mark.parametrize("fields, complaint", [
        ('"text": "coffee", "range_km": NaN', "NaN"),   # parent: 200, empty
        ('"text": "coffee", "range_km": 1e400', "range_km"),  # inf, no literal
        ('"text": null', "text"),             # parent: queried as "None"
        ('"text": ["a"]', "text"),            # parent: queried as "['a']"
    ])
    def test_query_fields_are_checked_not_coerced(
        self, query_server, fields, complaint
    ):
        status, answer = _post(
            query_server.url, "/query", b"{%s}" % fields.encode()
        )
        assert status == 400 and complaint in answer["error"]


class TestDeadlineHeader:
    @pytest.mark.parametrize("raw", ["nan", "NaN", "-nan", "-1", "soon", ""])
    def test_a_budget_that_is_not_a_non_negative_number_is_400(
        self, server, query_server, raw
    ):
        # "nan" at the parent: 500 TimeoutError on both routes
        header = {"X-Repro-Deadline-Ms": raw}
        assert _post(server.url, "/search", _search_body(), header)[0] == 400
        assert _post(
            query_server.url, "/query", {"text": "coffee"}, header
        )[0] == 400

    def test_nan_cannot_become_a_deadline(self):
        with pytest.raises(ValueError):
            Deadline.after(float("nan"))
        with pytest.raises(ValueError):
            Deadline.after_ms(float("nan"))


_budgets = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "0.0001", "250",
                     "-0.0", " 7 ", "1_0", "0x10", "", "soon"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 10**6).map(str),
)
_headers = st.one_of(
    st.just({}), st.builds(lambda raw: {"X-Repro-Deadline-Ms": raw}, _budgets)
)


@settings(max_examples=150, deadline=None)
@given(headers=_headers, coalesce=st.booleans())
def test_no_deadline_header_earns_a_500(server, headers, coalesce):
    status, _ = _post(
        server.url, "/search", _search_body(coalesce=coalesce), headers
    )
    assert status in _HONEST


_texts = st.sampled_from(["cozy coffee shop", "pizza", "x", "", " "])
_query_bodies = st.fixed_dictionaries(
    {"text": _mostly("cozy coffee shop", st.one_of(_texts, _leaves))},
    optional={
        "lat": _mostly(34.42, _leaves),
        "lon": _mostly(-119.70, _leaves),
        "range_km": _mostly(5.0, _leaves),
        "coalesce": _scalars,
    },
)


@settings(max_examples=150, deadline=None)
@given(body=_query_bodies, headers=_headers)
def test_no_query_body_earns_a_500_or_a_non_json_answer(
    query_server, body, headers
):
    status, _ = _post(query_server.url, "/query", body, headers)
    assert status in _HONEST


def _scratch_still_reads_as_json(base: str) -> None:
    status, _ = _post(base, "/search", {
        "collection": "scratch", "vector": QUERY, "k": 50, "exact": True,
    })
    assert status == 200


_payloads = st.dictionaries(
    st.sampled_from(["a", "city", "location", "rank"]), _leaves, max_size=3
)
_point_rows = st.fixed_dictionaries(
    {
        "id": _mostly("w1", _leaves),
        "vector": _mostly(QUERY, st.one_of(
            st.lists(_numbers, min_size=DIM, max_size=DIM), _leaves,
        )),
    },
    optional={"payload": st.one_of(_payloads, _leaves)},
)
_upsert_bodies = st.fixed_dictionaries({
    "collection": _mostly("scratch", st.sampled_from(["ghost", 7, None])),
    "points": st.one_of(
        st.lists(st.one_of(_point_rows, _point_rows, _leaves), max_size=3),
        _leaves,
    ),
})


@settings(max_examples=150, deadline=None)
@given(body=_upsert_bodies)
def test_no_upsert_body_earns_a_500_or_a_non_json_answer(server, body):
    status, _ = _post(server.url, "/upsert", body)
    assert status in _HONEST
    _scratch_still_reads_as_json(server.url)


_set_payload_bodies = st.fixed_dictionaries({
    "collection": _mostly("scratch", st.sampled_from(["ghost", 7, None])),
    "id": _mostly("p1", _leaves),
    "payload": st.one_of(_payloads, _payloads, _leaves),
})


@settings(max_examples=150, deadline=None)
@given(body=_set_payload_bodies)
def test_no_set_payload_body_earns_a_500_or_a_non_json_answer(server, body):
    status, _ = _post(server.url, "/set_payload", body)
    assert status in _HONEST
    _scratch_still_reads_as_json(server.url)


#: What ``meta.json`` holds in the junk-meta shape: not JSON, JSON that
#: is no object, objects without the keys a load reads.
_JUNK_METAS = [
    "not json", "[]", "7", "{}", '{"schema": 4}', '{"schema": 4, "shards": 2}',
]
#: ``directory`` as the client may choose it, well or badly.
_path_shapes = st.sampled_from([
    "missing", "file", "under-file", "empty-dir", "junk-meta", "snapshot",
    "uncreatable",
])


@pytest.fixture(scope="module")
def admin_root(client, tmp_path_factory) -> Path:
    """Scratch space holding one good snapshot of ``scratch``."""
    root = tmp_path_factory.mktemp("admin")
    client.save("scratch", root / "good")
    return root


def _shaped_path(home: Path, shape: str, meta: str, good: Path) -> str:
    if shape == "uncreatable":
        return "/proc/nope/x"
    if shape == "file":
        (home / "snap").write_text("a file, not a snapshot")
    elif shape == "under-file":
        (home / "file").write_text("a file, not a directory")
        return str(home / "file" / "snap")
    elif shape == "empty-dir":
        (home / "snap").mkdir()
    elif shape == "junk-meta":
        (home / "snap").mkdir()
        (home / "snap" / "meta.json").write_text(meta)
    elif shape == "snapshot":
        shutil.copytree(good, home / "snap")
    return str(home / "snap")


@settings(max_examples=150, deadline=None)
@given(
    route=st.sampled_from(["/admin/save", "/admin/load"]),
    shape=_path_shapes,
    meta=st.sampled_from(_JUNK_METAS),
    fields=st.fixed_dictionaries({}, optional={
        "collection": _mostly("scratch", st.sampled_from(["ghost", 7, None])),
        "directory": _scalars,
        "mmap": _scalars,
        "wal": st.sampled_from([None, "batch", "x", 7]),
    }),
)
def test_no_admin_body_or_path_earns_a_500_or_leaves_a_staging_tree(
    server, admin_root, route, shape, meta, fields
):
    home = Path(tempfile.mkdtemp(dir=admin_root))
    body = {
        "collection": "scratch",
        "directory": _shaped_path(home, shape, meta, admin_root / "good"),
        **fields,
    }
    with contextlib.chdir(home):  # where a relative ``directory`` lands
        status, _ = _post(server.url, route, body)
    assert status in (200, 400, 404)
    assert not list(home.rglob(".*save-tmp-*"))
    _scratch_still_reads_as_json(server.url)
