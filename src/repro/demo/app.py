"""The SemaSK demo (paper §5) as a static HTML page and a tiny HTTP app.

Mirrors the Figure-3 UI: a user panel showing the selected neighbourhood
and query sentence, a map view with green (recommended) and blue (fetched
but filtered) markers, the top recommendation's detail card with the LLM's
reason, and the full result list. :func:`build_demo_page` renders it all
into one self-contained HTML file; :class:`DemoServer` serves it with a
live query box on the serving layer's :class:`~repro.serving.http.HttpService`.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from http.server import HTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.pipeline import SemaSK
from repro.core.query import SpatialKeywordQuery
from repro.core.results import QueryResult
from repro.data.dataset import Dataset
from repro.demo.render import render_map_svg
from repro.geo.bbox import BoundingBox
from repro.geo.geocoder import ReverseGeocoder
from repro.serving.http import HttpService, _JsonHandler

_PAGE_STYLE = """
body { font-family: 'Segoe UI', sans-serif; margin: 0; background: #fafafa;
       color: #222; }
header { background: #214d3c; color: white; padding: 14px 24px; }
header h1 { margin: 0; font-size: 20px; }
.panel { background: white; border: 1px solid #ddd; border-radius: 8px;
         padding: 16px; margin: 12px; }
.layout { display: flex; flex-wrap: wrap; align-items: flex-start; }
.detail { flex: 1 1 260px; }
.map { flex: 0 0 auto; }
.query { font-style: italic; color: #333; }
.poi { border-bottom: 1px solid #eee; padding: 8px 0; }
.poi:last-child { border-bottom: none; }
.name { font-weight: 600; }
.reason { color: #555; font-size: 14px; }
.badge { display: inline-block; border-radius: 10px; padding: 1px 8px;
         font-size: 12px; color: white; margin-left: 6px; }
.badge.green { background: #2e8b57; } .badge.blue { background: #4169e1; }
.timing { color: #777; font-size: 13px; }
"""


@dataclass
class DemoContext:
    """Everything the demo needs to answer queries for one city."""

    system: SemaSK
    dataset: Dataset
    geocoder: ReverseGeocoder
    city_code: str
    default_neighborhood: str
    default_query: str
    range_km: float = 5.0

    def run(self, neighborhood: str, query_text: str) -> tuple[QueryResult, BoundingBox]:
        """Answer a query centred on the named neighbourhood."""
        center = self.geocoder.neighborhood_center(self.city_code, neighborhood)
        query = SpatialKeywordQuery.around(
            center, query_text, self.range_km, self.range_km
        )
        return self.system.query(query), query.range


def build_demo_page(
    context: DemoContext,
    neighborhood: str | None = None,
    query_text: str | None = None,
    interactive: bool = False,
) -> str:
    """Render the full demo page for one query."""
    neighborhood = neighborhood or context.default_neighborhood
    query_text = query_text or context.default_query
    result, box = context.run(neighborhood, query_text)
    svg = render_map_svg(result, context.dataset, box)

    top_detail = "<p>No POI was recommended for this query.</p>"
    if result.entries:
        top = result.entries[0]
        record = context.dataset.get(top.business_id)
        top_detail = (
            f"<p class='name'>{html.escape(top.name)}</p>"
            f"<p>{html.escape(record.address)}, "
            f"{html.escape(record.neighborhood)}</p>"
            f"<p>{html.escape(', '.join(record.categories))} &middot; "
            f"{record.stars} stars</p>"
            f"<p class='reason'>{html.escape(top.reason)}</p>"
        )

    rows = []
    for entry in result.entries:
        record = context.dataset.get(entry.business_id)
        rows.append(
            "<div class='poi'><span class='name'>"
            f"{html.escape(entry.name)}</span>"
            "<span class='badge green'>recommended</span>"
            f"<div>{html.escape(', '.join(record.categories))} &middot; "
            f"{record.stars} stars &middot; "
            f"{html.escape(record.neighborhood)}</div>"
            f"<div class='reason'>{html.escape(entry.reason)}</div></div>"
        )
    for entry in result.filtered_out:
        rows.append(
            "<div class='poi'><span class='name'>"
            f"{html.escape(entry.name)}</span>"
            "<span class='badge blue'>filtered out</span>"
            f"<div class='reason'>{html.escape(entry.reason)}</div></div>"
        )

    form = ""
    if interactive:
        options = "".join(
            f"<option{' selected' if n == neighborhood else ''}>"
            f"{html.escape(n)}</option>"
            for n in context.geocoder.neighborhoods_of(context.city_code)
        )
        form = (
            "<form class='panel' method='get' action='/'>"
            f"<label>Region: <select name='neighborhood'>{options}"
            "</select></label> "
            f"<label>Query: <input name='q' size='70' "
            f"value='{html.escape(query_text, quote=True)}'></label> "
            "<button type='submit'>Search</button></form>"
        )

    timings = result.timings
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>SemaSK Demo</title>
<style>{_PAGE_STYLE}</style></head>
<body>
<header><h1>SemaSK &mdash; semantics-aware spatial keyword search</h1></header>
{form}
<div class="panel">
  <div><strong>Region:</strong> {html.escape(neighborhood)}</div>
  <div class="query"><strong>Query:</strong> &ldquo;{html.escape(query_text)}&rdquo;</div>
  <div class="timing">filtering {timings.filter_s * 1000:.0f} ms &middot;
  LLM refinement (modelled) {timings.refine_modeled_s:.1f} s &middot;
  {result.candidates_considered} candidates considered</div>
</div>
<div class="layout">
  <div class="panel detail"><h3>Top recommendation</h3>{top_detail}</div>
  <div class="panel map">{svg}</div>
</div>
<div class="panel"><h3>All results</h3>{''.join(rows) or '<p>none</p>'}</div>
</body></html>"""


class _DemoHandler(_JsonHandler):
    """Renders :func:`build_demo_page` for the bound :class:`DemoContext`."""

    context: DemoContext  # injected by DemoServer

    def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
        self.server.request_began()  # counted, so shutdown drains it
        try:
            context = self.context
            params = parse_qs(urlparse(self.path).query)
            neighborhood = params.get(
                "neighborhood", [context.default_neighborhood]
            )[0]
            query_text = params.get("q", [context.default_query])[0]
            try:
                page = build_demo_page(
                    context, neighborhood, query_text, interactive=True
                )
                status = 200
            except Exception as exc:  # reprolint: last-resort -- rendered as the 500 error page
                page = f"<h1>Error</h1><pre>{html.escape(str(exc))}</pre>"
                status = 500
            self._send_bytes(
                status, page.encode("utf-8"), "text/html; charset=utf-8"
            )
        finally:
            self.server.request_finished()


class DemoServer(HttpService):
    """:func:`build_demo_page` behind an :class:`HttpService` (bound at
    construction; ``port=0`` picks an ephemeral port)."""

    def __init__(self, context: DemoContext, port: int = 8808) -> None:
        handler = type("BoundDemoHandler", (_DemoHandler,), {
            "context": context,
        })
        super().__init__(
            handler, "127.0.0.1", port, None, on_close=lambda: None
        )

    def make_server(self) -> HTTPServer:
        """The bound HTTP server (caller controls serve_forever)."""
        return self._httpd

    def serve_forever(self) -> None:
        """Run until interrupted (used by examples/demo script)."""
        print(f"SemaSK demo at {self.url}/")
        super().serve_forever()
