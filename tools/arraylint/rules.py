"""The arraylint rule catalogue (AL01–AL05).

Every rule is a *lexical* encoding of a numeric-memory invariant the
vector engine depends on — the analyzer checks what it can see in one
file's AST and leaves actual allocation behaviour (peaks, buffer
sharing across modules) to the runtime auditor
(:mod:`repro.testing.memwatch`). The catalogue:

AL01  explicit dtypes in hot modules — every dtype-carrying numpy
      constructor (``np.array``/``zeros``/``empty``/``fromiter``/
      ``arange``/…) in ``vectordb/``, ``spatial/``, or ``embeddings/``
      passes ``dtype=`` explicitly, and reductions stored into instance
      state declare theirs. Implicit float64 creep doubles resident
      size without a test failing; explicit ``dtype=np.float64`` is a
      reviewable decision and passes.
AL02  no hidden full copies — ``.astype(...)`` without ``copy=False``
      copies even when the dtype already matches (the load-path bug
      class), and ``np.ascontiguousarray``/``np.copy`` applied to a
      class's own vector/matrix storage materializes what may be an
      mmap view. Both are allowed only inside a function annotated
      ``# arraylint: cow-seam``.
AL03  mmap read-only discipline — a function that adopts a
      caller-provided matrix into vector storage (``x._vectors = arg``)
      must visibly handle ``.flags.writeable``, and in-place writes to
      such storage (``self._vectors[i] = …``) need a visible writeable
      guard or a ``cow-seam`` annotation. Adopted matrices may be
      memory-mapped snapshots; writing through them is corruption.
AL04  serialization byte-order hygiene — ``struct`` format strings and
      ``np.frombuffer``/``np.fromfile`` dtypes at serialization
      boundaries must be byte-order-explicit (``"<II"``, ``"<f4"``),
      and a module's reader dtypes must mirror its writer dtypes.
      Native-endian defaults make WAL/snapshot bytes machine-dependent.
AL05  array contracts on public numeric entrypoints — ``search``/
      ``search_batch``/``from_vectors``/``from_matrix``/``upsert`` and
      the distance kernels in hot numpy modules carry an
      ``@array_contract`` declaration so shape/dtype expectations are
      machine-checkable (enforced under memwatch).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePosixPath

from tools.lintcore import Finding, LintContext

#: Path components that mark a "hot" numeric module: these hold (or
#: feed) the per-vector data plane, where a stray float64 or hidden
#: copy scales with corpus size.
_HOT_PARTS = {"vectordb", "spatial", "embeddings"}

#: numpy constructors that take a ``dtype=`` and otherwise infer one
#: (AL01). The ``*_like`` family inherits its dtype and is exempt.
_DTYPE_CTORS = {
    "array",
    "asarray",
    "ascontiguousarray",
    "asfortranarray",
    "zeros",
    "ones",
    "empty",
    "full",
    "fromiter",
    "frombuffer",
    "fromfile",
    "arange",
    "linspace",
}

#: numpy reductions whose accumulator dtype matters when the result is
#: stored into instance state (AL01): summing float32 in float64 is the
#: textbook silent upcast.
_REDUCTIONS = {"sum", "mean", "prod", "cumsum", "cumprod"}

#: Attribute names that denote per-vector matrix storage on a class
#: (AL02/AL03): the arrays that may be mmap-adopted.
_STORAGE_MARKERS = ("vector", "matrix")

#: struct callables whose first argument is a format string (AL04).
_STRUCT_FMT_CALLS = {
    "Struct",
    "pack",
    "pack_into",
    "unpack",
    "unpack_from",
    "calcsize",
}

#: Byte-order prefixes that make a struct format / dtype string
#: machine-independent.
_BYTE_ORDER_PREFIXES = ("<", ">", "!", "=")

#: Public numeric entrypoints that must declare an ``@array_contract``
#: (AL05) when defined in a hot module that imports numpy.
_CONTRACT_ENTRYPOINTS = {
    "search",
    "search_batch",
    "from_vectors",
    "from_matrix",
    "upsert",
    "similarity",
    "pairwise_similarity",
    "normalize_rows",
}


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------


def _attr_chain(node: ast.expr) -> list[str]:
    """``self._vectors.flags.writeable`` -> ["self", "_vectors", ...]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


def _is_hot(path: str) -> bool:
    parts = set(PurePosixPath(path.replace("\\", "/")).parts)
    return bool(parts & _HOT_PARTS)


def _np_call(call: ast.Call) -> str | None:
    """Return ``"arange"`` for ``np.arange(...)``/``numpy.arange(...)``."""
    chain = _attr_chain(call.func)
    if len(chain) == 2 and chain[0] in ("np", "numpy"):
        return chain[1]
    return None


def _has_kw(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _get_kw(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _imports_numpy(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "numpy" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy":
                return True
    return False


def _functions(
    tree: ast.Module,
) -> Iterator[tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(enclosing_class_or_None, function)`` pairs, outermost
    class attribution winning for nested defs."""

    def visit(node: ast.AST, cls: str | None) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, child
                yield from visit(child, cls)
            else:
                yield from visit(child, cls)

    yield from visit(tree, None)


def _enclosing_function(
    tree: ast.Module, target: ast.AST
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """Innermost function whose span contains ``target`` (by position)."""
    best = None
    for _, fn in _functions(tree):
        if fn.lineno <= target.lineno <= (fn.end_lineno or fn.lineno):
            if best is None or fn.lineno >= best.lineno:
                best = fn
    return best


def _in_cow_seam(ctx: LintContext, node: ast.AST) -> bool:
    fn = _enclosing_function(ctx.tree, node)
    return fn is not None and ctx.directives.marks_cow_seam(fn.lineno)


def _mentions_writeable(fn: ast.AST) -> bool:
    """Does the function body reference ``.flags.writeable`` anywhere
    (either testing it — the COW guard — or setting it on adoption)?"""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "writeable"
        for node in ast.walk(fn)
    )


def _is_storage_attr(node: ast.expr) -> bool:
    """``self._vectors`` / ``index._matrix``-style storage attribute."""
    chain = _attr_chain(node)
    return (
        len(chain) >= 2
        and any(m in chain[-1].lower() for m in _STORAGE_MARKERS)
    )


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return {n for n in names if n not in ("self", "cls")}


# ----------------------------------------------------------------------
# AL01 — explicit dtypes in hot modules
# ----------------------------------------------------------------------


class ExplicitDtypeRule:
    id = "AL01"
    description = (
        "hot-module numpy constructors and stored reductions pass an "
        "explicit dtype (no implicit float64 creep)"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        if not _is_hot(ctx.path):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _np_call(node)
                if (
                    name in _DTYPE_CTORS
                    and not _has_kw(node, "dtype")
                    # frombuffer's dtype may be the second positional.
                    and not (name == "frombuffer" and len(node.args) >= 2)
                ):
                    findings.append(Finding(
                        rule=self.id, path=ctx.path, line=node.lineno,
                        message=(
                            f"np.{name}() without an explicit dtype= in a "
                            "hot module; the inferred default (often "
                            "float64/int64) silently doubles memory"
                        ),
                    ))
            elif isinstance(node, ast.Assign):
                findings.extend(self._stored_reduction(ctx, node))
        return findings

    def _stored_reduction(
        self, ctx: LintContext, node: ast.Assign
    ) -> list[Finding]:
        if not isinstance(node.value, ast.Call):
            return []
        name = _np_call(node.value)
        if name not in _REDUCTIONS or _has_kw(node.value, "dtype"):
            return []
        for target in node.targets:
            chain = _attr_chain(target)
            if len(chain) >= 2 and chain[0] == "self":
                return [Finding(
                    rule=self.id, path=ctx.path, line=node.lineno,
                    message=(
                        f"np.{name}() result stored into instance state "
                        "without an explicit dtype= (float32 inputs "
                        "accumulate in float64 by default)"
                    ),
                )]
        return []


# ----------------------------------------------------------------------
# AL02 — no hidden full copies
# ----------------------------------------------------------------------


class HiddenCopyRule:
    id = "AL02"
    description = (
        "no hidden full-copy ops: .astype() carries copy=False, and "
        "ascontiguousarray/np.copy never materialize adopted storage "
        "outside a cow-seam function"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        if not _is_hot(ctx.path):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
            ):
                copy_kw = _get_kw(node, "copy")
                copies = not (
                    isinstance(copy_kw, ast.Constant)
                    and copy_kw.value is False
                )
                if copies and not _in_cow_seam(ctx, node):
                    findings.append(Finding(
                        rule=self.id, path=ctx.path, line=node.lineno,
                        message=(
                            ".astype() copies even when the dtype already "
                            "matches; pass copy=False or annotate the "
                            "enclosing function as a cow-seam"
                        ),
                    ))
            elif _np_call(node) in ("ascontiguousarray", "copy"):
                args = list(node.args) + [
                    kw.value for kw in node.keywords if kw.arg == "a"
                ]
                materializes = any(
                    _is_storage_attr(sub)
                    for arg in args
                    for sub in ast.walk(arg)
                    if isinstance(sub, ast.Attribute)
                )
                if materializes and not _in_cow_seam(ctx, node):
                    findings.append(Finding(
                        rule=self.id, path=ctx.path, line=node.lineno,
                        message=(
                            "materializes a class's vector/matrix storage "
                            "(possibly an mmap view) outside an annotated "
                            "cow-seam function"
                        ),
                    ))
        return findings


# ----------------------------------------------------------------------
# AL03 — mmap read-only discipline
# ----------------------------------------------------------------------


class MmapReadOnlyRule:
    id = "AL03"
    description = (
        "adopted matrices are marked writeable=False, and in-place "
        "writes to vector storage sit behind a writeable guard or a "
        "cow-seam annotation"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        if not _is_hot(ctx.path) or not _imports_numpy(ctx.tree):
            return []
        findings: list[Finding] = []
        for _, fn in _functions(ctx.tree):
            guarded = _mentions_writeable(fn)
            seam = ctx.directives.marks_cow_seam(fn.lineno)
            params = _param_names(fn)
            for node in ast.walk(fn):
                if not isinstance(node, (ast.Assign, ast.AugAssign)):
                    continue
                if _enclosing_function(ctx.tree, node) is not fn:
                    continue
                if isinstance(node, ast.Assign):
                    findings.extend(self._check_adoption(
                        ctx, fn, node, params, guarded, seam
                    ))
                    findings.extend(self._check_inplace(
                        ctx, node.targets, node.lineno, guarded, seam
                    ))
                else:
                    findings.extend(self._check_inplace(
                        ctx, [node.target], node.lineno, guarded, seam
                    ))
        return findings

    def _check_adoption(
        self,
        ctx: LintContext,
        fn: ast.AST,
        node: ast.Assign,
        params: set[str],
        guarded: bool,
        seam: bool,
    ) -> list[Finding]:
        """``index._vectors = matrix`` where ``matrix`` is a parameter:
        the function adopts caller memory and must freeze its view."""
        if guarded or seam:
            return []
        adopts = any(
            isinstance(t, ast.Attribute)
            and _is_storage_attr(t)
            and isinstance(node.value, ast.Name)
            and node.value.id in params
            for t in node.targets
        )
        if not adopts:
            return []
        return [Finding(
            rule=self.id, path=ctx.path, line=node.lineno,
            message=(
                "adopts a caller-provided matrix into vector storage "
                "without handling .flags.writeable (mmap-backed "
                "snapshots must be frozen read-only on adoption)"
            ),
        )]

    def _check_inplace(
        self,
        ctx: LintContext,
        targets: list[ast.expr],
        line: int,
        guarded: bool,
        seam: bool,
    ) -> list[Finding]:
        """``self._vectors[i] = …`` needs a visible writeable guard."""
        if guarded or seam:
            return []
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and _is_storage_attr(target.value)
                and _attr_chain(target.value)[0] in ("self", "cls")
            ):
                return [Finding(
                    rule=self.id, path=ctx.path, line=line,
                    message=(
                        "in-place write to vector/matrix storage without "
                        "a visible .flags.writeable guard; adopted "
                        "storage may be a read-only mmap (guard it or "
                        "annotate the function cow-seam)"
                    ),
                )]
        return []


# ----------------------------------------------------------------------
# AL04 — serialization byte-order hygiene
# ----------------------------------------------------------------------


class SerializationDtypeRule:
    id = "AL04"
    description = (
        "struct formats and frombuffer/fromfile dtypes at serialization "
        "boundaries are byte-order-explicit, and reader dtypes mirror "
        "writer dtypes"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        read_dtypes: set[str] = set()
        write_dtypes: set[str] = set()
        pack_fmts: set[str] = set()
        unpack_fmts: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if (
                len(chain) == 2
                and chain[0] == "struct"
                and chain[1] in _STRUCT_FMT_CALLS
            ):
                findings.extend(self._check_struct_fmt(
                    ctx, node, chain[1], pack_fmts, unpack_fmts
                ))
                continue
            name = _np_call(node)
            if name in ("frombuffer", "fromfile"):
                findings.extend(self._check_buffer_dtype(
                    ctx, node, name, read_dtypes
                ))
            elif name in _DTYPE_CTORS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
            ):
                dtype = _get_kw(node, "dtype")
                if dtype is None and (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                    and node.args
                ):
                    dtype = node.args[0]
                if (
                    isinstance(dtype, ast.Constant)
                    and isinstance(dtype.value, str)
                    and dtype.value.startswith(_BYTE_ORDER_PREFIXES)
                ):
                    write_dtypes.add(dtype.value)
        if read_dtypes and write_dtypes and read_dtypes != write_dtypes:
            findings.append(Finding(
                rule=self.id, path=ctx.path, line=1,
                message=(
                    "reader/writer dtype asymmetry: frombuffer/fromfile "
                    f"read {sorted(read_dtypes)} but this module writes "
                    f"{sorted(write_dtypes)}"
                ),
            ))
        if pack_fmts and unpack_fmts and pack_fmts != unpack_fmts:
            findings.append(Finding(
                rule=self.id, path=ctx.path, line=1,
                message=(
                    "pack/unpack struct format asymmetry: pack uses "
                    f"{sorted(pack_fmts)} but unpack uses "
                    f"{sorted(unpack_fmts)}"
                ),
            ))
        return findings

    def _check_struct_fmt(
        self,
        ctx: LintContext,
        node: ast.Call,
        method: str,
        pack_fmts: set[str],
        unpack_fmts: set[str],
    ) -> list[Finding]:
        fmt = node.args[0] if node.args else _get_kw(node, "format")
        if not (isinstance(fmt, ast.Constant) and isinstance(fmt.value, str)):
            return []
        if not fmt.value.startswith(_BYTE_ORDER_PREFIXES):
            return [Finding(
                rule=self.id, path=ctx.path, line=node.lineno,
                message=(
                    f'struct format "{fmt.value}" has no byte-order '
                    'prefix; native alignment makes serialized bytes '
                    'machine-dependent (use "<", ">", "!", or "=")'
                ),
            )]
        if method.startswith("pack"):
            pack_fmts.add(fmt.value)
        elif method.startswith("unpack"):
            unpack_fmts.add(fmt.value)
        return []

    def _check_buffer_dtype(
        self,
        ctx: LintContext,
        node: ast.Call,
        name: str,
        read_dtypes: set[str],
    ) -> list[Finding]:
        dtype = _get_kw(node, "dtype")
        if dtype is None and len(node.args) >= 2:
            dtype = node.args[1]
        if dtype is None:
            return [Finding(
                rule=self.id, path=ctx.path, line=node.lineno,
                message=(
                    f"np.{name}() without a dtype reads float64 by "
                    "default; serialization boundaries need a "
                    'byte-order-explicit dtype like "<f4"'
                ),
            )]
        if (
            isinstance(dtype, ast.Constant)
            and isinstance(dtype.value, str)
            and dtype.value.startswith(_BYTE_ORDER_PREFIXES)
        ):
            read_dtypes.add(dtype.value)
            return []
        return [Finding(
            rule=self.id, path=ctx.path, line=node.lineno,
            message=(
                f"np.{name}() dtype is not a byte-order-explicit string "
                'literal (use "<f4"-style so on-disk bytes never depend '
                "on host endianness)"
            ),
        )]


# ----------------------------------------------------------------------
# AL05 — array contracts on public numeric entrypoints
# ----------------------------------------------------------------------


class ArrayContractRule:
    id = "AL05"
    description = (
        "public numeric entrypoints (search*, from_vectors, from_matrix, "
        "upsert, distance kernels) in hot numpy modules declare an "
        "@array_contract"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        if not _is_hot(ctx.path) or not _imports_numpy(ctx.tree):
            return []
        findings: list[Finding] = []
        for _, fn in _functions(ctx.tree):
            if fn.name not in _CONTRACT_ENTRYPOINTS:
                continue
            if any(self._is_contract(d) for d in fn.decorator_list):
                continue
            findings.append(Finding(
                rule=self.id, path=ctx.path, line=fn.lineno,
                message=(
                    f"public numeric entrypoint {fn.name}() lacks an "
                    "@array_contract shape/dtype declaration "
                    "(repro.vectordb.contracts)"
                ),
            ))
        return findings

    @staticmethod
    def _is_contract(decorator: ast.expr) -> bool:
        node = decorator
        if isinstance(node, ast.Call):
            node = node.func
        chain = _attr_chain(node)
        return bool(chain) and chain[-1] == "array_contract"


ALL_RULES = [
    ExplicitDtypeRule(),
    HiddenCopyRule(),
    MmapReadOnlyRule(),
    SerializationDtypeRule(),
    ArrayContractRule(),
]
