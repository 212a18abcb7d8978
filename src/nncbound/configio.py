"""JSON config files for networks and code designs.

A network file is a JSON object with a ``format`` tag naming one of the
supported network families; the remaining keys depend on the tag (see
``docs/config-formats.md`` for the full schemas and worked examples).
Tensors may be given as nested arrays or as flat row-major lists (the
rightmost index varies fastest).

Probability rows are validated to sum to 1 within 1e-9 — violations are
rejected with the offending row named — and then renormalized exactly so
the stricter tolerances of the in-memory types hold downstream.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .dm_bounds import (
    DeterministicNetwork,
    ErasureNetwork,
    NoiselessLink,
    NoiselessNetwork,
)
from .errors import SchemaError
from .infocalc import (
    CodingDistribution,
    copy_compression,
    input_product,
    uniform_inputs,
)
from .netmodel import DmNetwork, GaussianNetwork, NodeSet

NETWORK_FORMATS = ("gaussian", "dm", "noiseless", "erasure", "deterministic")

ROW_TOL = 1e-9

AnyNetwork = (
    GaussianNetwork | DmNetwork | NoiselessNetwork | ErasureNetwork | DeterministicNetwork
)


def _load_json(path: str | Path) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return data


def _need(data: dict[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return data[key]


def _numbers(value: Any, what: str) -> np.ndarray:
    """A JSON number or a regular nested array of them, as a float array.

    Strings, booleans, null and ragged nesting are rejected: numpy would
    parse "5", read true as 1, or fail with a ValueError."""
    arr = np.asarray(value, dtype=object)  # ragged rows stay lists
    types = set(map(type, arr.flat))
    if list in types:
        raise SchemaError(f"{what}: nested arrays must be regular, not ragged")
    if not types <= {int, float}:
        raise SchemaError(
            f"{what}: every entry must be a JSON number "
            "(no strings, booleans or null)"
        )
    try:
        return arr.astype(float)
    except OverflowError:
        raise SchemaError(f"{what}: an entry overflows a float") from None


def _number(value: Any, what: str) -> float:
    arr = _numbers(value, what)
    if arr.ndim:
        raise SchemaError(f"{what} must be a single number, got an array")
    return float(arr)


def _is_integer(value: Any) -> bool:
    """Integral floats such as 2.0 are exact and count; booleans,
    fractions, strings and null do not."""
    return (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, float) and value.is_integer()
    )


def _list(data: dict[str, Any], key: str, where: str) -> list[Any]:
    value = _need(data, key, where)
    if not isinstance(value, list):
        raise SchemaError(f"{where}: {key!r} must be an array, got {value!r}")
    return value


def _object(item: Any, keys: Sequence[str], what: str) -> dict[str, Any]:
    if not isinstance(item, dict):
        raise SchemaError(f"{what} must be an object, got {item!r}")
    for key in keys:
        if key not in item:
            raise SchemaError(f"{what} missing {key!r}")
    return item


def _node(value: Any, n: int, what: str) -> int:
    """A 1-based node index in 1..n."""
    if not _is_integer(value) or not 1 <= value <= n:
        raise SchemaError(f"{what} must be a node index in 1..{n}, got {value!r}")
    return int(value)


def _nodes(value: Any, n: int, what: str) -> NodeSet:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be an array of nodes, got {value!r}")
    return NodeSet.from_nodes(n, (_node(k, n, what) for k in value))


def _tensor(value: Any, shape: Sequence[int], what: str) -> np.ndarray:
    """Accept nested arrays or a flat row-major list for a known shape."""
    arr = _numbers(value, what)
    want = tuple(int(s) for s in shape)
    if arr.shape == want:
        return arr
    if arr.ndim == 1 and arr.size == math.prod(want):
        return arr.reshape(want)
    raise SchemaError(
        f"{what}: expected shape {want} (nested) or a flat list of "
        f"{math.prod(want)} entries, got shape {arr.shape}"
    )


def _normalize_rows(arr: np.ndarray, what: str) -> np.ndarray:
    """Check each trailing-axis row sums to 1 within tolerance, then
    renormalize exactly."""
    flat = arr.reshape(-1, arr.shape[-1])
    if np.any(flat < 0):
        raise SchemaError(f"{what}: negative probability entries")
    sums = flat.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SchemaError(f"{what}: row {i} sums to {sums[i]!r}, not 1")
    return (flat / sums[:, None]).reshape(arr.shape)


def _sizes(data: dict[str, Any], key: str, where: str) -> tuple[int, ...]:
    """Alphabet sizes: a list of integers >= 1 (integral floats such as 2.0
    are exact and accepted; booleans, fractions and strings are not)."""
    out = []
    for k, s in enumerate(_list(data, key, where)):
        if not _is_integer(s) or s < 1:
            raise SchemaError(f"{where}: {key}[{k}] must be an integer >= 1, got {s!r}")
        out.append(int(s))
    return tuple(out)


def _dest_sets(value: Any, n: int, where: str) -> tuple[NodeSet, ...]:
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(f"{where}: 'dests' must list one node array per node")
    return tuple(
        _nodes(nodes, n, f"{where}: dests[{k}]") for k, nodes in enumerate(value)
    )


def parse_node_set(text: str, n: int) -> NodeSet:
    """Parse "1,3" or "{1,3}" into a node set over n nodes."""
    body = text.strip().strip("{}")
    if not body:
        return NodeSet.empty(n)
    try:
        nodes = [int(tok) for tok in body.split(",")]
    except ValueError:
        raise SchemaError(f"cannot parse node set {text!r}") from None
    return NodeSet.from_nodes(n, nodes)


def load_network(path: str | Path) -> AnyNetwork:
    """Load any supported network description from a JSON file."""
    data = _load_json(path)
    where = str(path)
    fmt = _need(data, "format", where)
    if fmt not in NETWORK_FORMATS:
        raise SchemaError(
            f"{where}: unknown format {fmt!r}; expected one of {NETWORK_FORMATS}"
        )

    if fmt == "gaussian":
        gains = _numbers(_need(data, "gains", where), f"{where}: gains")
        if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
            raise SchemaError(f"{where}: 'gains' must be a square matrix")
        n = gains.shape[0]
        return GaussianNetwork(
            gains,
            _number(_need(data, "power", where), f"{where}: power"),
            _dest_sets(_need(data, "dests", where), n, where),
        )

    if fmt == "dm":
        x_sizes = _sizes(data, "x_sizes", where)
        y_sizes = _sizes(data, "y_sizes", where)
        n = len(x_sizes)
        chan = _tensor(
            _need(data, "channel", where), x_sizes + y_sizes, f"{where}: channel"
        )
        # Validate at file tolerance, then renormalize: rows here span all
        # output axes jointly.
        rows = chan.reshape(math.prod(x_sizes) or 1, -1)
        chan = _normalize_rows(rows, f"{where}: channel").reshape(x_sizes + y_sizes)
        return DmNetwork(
            x_sizes, y_sizes, chan, _dest_sets(_need(data, "dests", where), n, where)
        )

    if fmt == "noiseless":
        n = _need(data, "n_nodes", where)
        if not _is_integer(n) or n < 1:
            raise SchemaError(f"{where}: n_nodes must be an integer >= 1, got {n!r}")
        n = int(n)
        links = []
        for i, item in enumerate(_list(data, "links", where)):
            what = f"{where}: links[{i}]"
            item = _object(item, ("sender", "receiver", "capacity"), what)
            links.append(
                NoiselessLink(
                    _node(item["sender"], n, f"{what}.sender"),
                    _node(item["receiver"], n, f"{what}.receiver"),
                    _number(item["capacity"], f"{what}.capacity"),
                )
            )
        return NoiselessNetwork(
            n, tuple(links), _dest_sets(_need(data, "dests", where), n, where)
        )

    if fmt == "erasure":
        x_sizes = _sizes(data, "x_sizes", where)
        n = len(x_sizes)
        dests = _dest_sets(_need(data, "dests", where), n, where)
        if ("link_erasure" in data) == ("all_erased" in data):
            raise SchemaError(
                f"{where}: give exactly one of 'link_erasure' or 'all_erased'"
            )
        if "link_erasure" in data:
            mat = _numbers(data["link_erasure"], f"{where}: link_erasure")
            return ErasureNetwork(x_sizes, dests, link_erasure=mat)
        table: dict[tuple[int, int], float] = {}
        for i, item in enumerate(_list(data, "all_erased", where)):
            what = f"{where}: all_erased[{i}]"
            item = _object(item, ("sender", "receivers", "prob"), what)
            sender = _node(item["sender"], n, f"{what}.sender")
            mask = _nodes(item["receivers"], n, f"{what}.receivers").mask
            table[(sender, mask)] = _number(item["prob"], f"{what}.prob")
        return ErasureNetwork(x_sizes, dests, all_erased=table)

    # deterministic
    x_sizes = _sizes(data, "x_sizes", where)
    y_sizes = _sizes(data, "y_sizes", where)
    n = len(x_sizes)
    tables = []
    for k, value in enumerate(_list(data, "outputs", where)):
        what = f"{where}: outputs[{k}]"
        arr = np.asarray(value, dtype=object)  # ragged rows stay lists
        # Integral floats such as 1.0 are exact; fractions would be
        # truncated by a cast and true read as 1, so they are rejected.
        if not all(map(_is_integer, arr.flat)):
            raise SchemaError(f"{what} entries must be integers")
        if arr.ndim == 1 and arr.size == math.prod(x_sizes):
            arr = arr.reshape(x_sizes)
        if arr.shape != tuple(x_sizes):
            raise SchemaError(
                f"{what} must have shape {tuple(x_sizes)} "
                "(nested) or be a flat row-major list"
            )
        tables.append(arr.astype(float).astype(np.int64))
    return DeterministicNetwork(
        x_sizes, y_sizes, tuple(tables),
        _dest_sets(_need(data, "dests", where), n, where),
    )


def load_distribution(path: str | Path, net: DmNetwork) -> CodingDistribution:
    """Load a code design for ``net``; omitted parts get defaults
    (uniform inputs, no time sharing, forward-the-output compression)."""
    data = _load_json(path)
    where = str(path)
    mode = data.get("mode", "plain")
    if mode not in ("plain", "superposition"):
        raise SchemaError(f"{where}: mode must be 'plain' or 'superposition'")
    superposition = mode == "superposition"
    n = net.n_nodes

    q = _numbers(data.get("q_pmf", [1.0]), f"{where}: q_pmf")
    if q.ndim != 1 or q.size < 1:
        raise SchemaError(f"{where}: q_pmf must be a nonempty vector")
    q = _normalize_rows(q[None, :], f"{where}: q_pmf")[0]
    nq = q.size

    if "input_pmfs" in data:
        raw_inputs = _list(data, "input_pmfs", where)
        if len(raw_inputs) != n:
            raise SchemaError(f"{where}: need one input pmf per node")
        if superposition:
            u_sizes = _sizes(data, "u_sizes", where) if "u_sizes" in data else ()
            if len(u_sizes) < n:
                raise SchemaError(
                    f"{where}: superposition designs must declare 'u_sizes' per node"
                )
        inputs = []
        for k in range(1, n + 1):
            if superposition:
                shape = (nq, u_sizes[k - 1], net.x_sizes[k - 1])
            else:
                shape = (nq, net.x_sizes[k - 1])
            arr = _tensor(raw_inputs[k - 1], shape, f"{where}: input_pmfs[{k - 1}]")
            flat = arr.reshape(nq, -1)
            arr = _normalize_rows(flat, f"{where}: input_pmfs[{k - 1}]").reshape(shape)
            inputs.append(arr)
        input_pmfs = tuple(inputs)
    elif superposition:
        raise SchemaError(
            f"{where}: superposition designs must spell out 'input_pmfs'"
        )
    else:
        input_pmfs = uniform_inputs(net.x_sizes, nq)

    if "compression" in data:
        raw_comp = _list(data, "compression", where)
        if len(raw_comp) != n:
            raise SchemaError(f"{where}: need one compressor per node")
        yhat_sizes = net.y_sizes
        if data.get("yhat_sizes") is not None:
            yhat_sizes = _sizes(data, "yhat_sizes", where)
            if len(yhat_sizes) != n:
                raise SchemaError(f"{where}: 'yhat_sizes' must list one size per node")
        comps = []
        for k in range(1, n + 1):
            mid = input_pmfs[k - 1].shape[1] if superposition else net.x_sizes[k - 1]
            yh = yhat_sizes[k - 1]
            shape = (nq, net.y_sizes[k - 1], mid, yh)
            arr = _tensor(raw_comp[k - 1], shape, f"{where}: compression[{k - 1}]")
            flat = arr.reshape(-1, yh)
            arr = _normalize_rows(flat, f"{where}: compression[{k - 1}]").reshape(shape)
            comps.append(arr)
        compression = tuple(comps)
    elif superposition:
        raise SchemaError(
            f"{where}: superposition designs must spell out 'compression'"
        )
    else:
        compression = copy_compression(net, nq)

    return CodingDistribution(q, input_pmfs, compression, superposition)


def load_input_family(
    path: str | Path | None, net: DmNetwork
) -> list[np.ndarray]:
    """Input distributions for the outer bound.

    Without a file: the uniform joint input.  A file may give
    ``joint_inputs`` (one tensor over all senders, or a list of them) or
    a product design (``q_pmf`` + ``input_pmfs``), which contributes one
    product input per time-share value.
    """
    shape = tuple(net.x_sizes)
    if path is None:
        return [np.full(shape, 1.0 / math.prod(shape))]
    data = _load_json(path)
    where = str(path)
    if "joint_inputs" in data:
        raw = _list(data, "joint_inputs", where)
        try:
            layout = np.asarray(raw, dtype=float).shape
        except (TypeError, ValueError, OverflowError):
            layout = None  # ragged or not numbers: a list of members
        raw_list = [raw] if layout in (shape, (math.prod(shape),)) else raw
        out = []
        for i, item in enumerate(raw_list):
            t = _tensor(item, shape, f"{where}: joint_inputs[{i}]")
            t = _normalize_rows(t.reshape(1, -1), f"{where}: joint_inputs[{i}]")
            out.append(t.reshape(shape))
        return out
    dist = load_distribution(path, net)
    if dist.superposition:
        raise SchemaError(f"{where}: outer-bound inputs must be a plain design")
    return list(input_product(dist.input_pmfs))
