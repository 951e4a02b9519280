"""Bundled designs transcribed from published listings.

catalog.json stores each entry as a design document in its original
integer labels plus a declared relabeling rule.  The loader applies the
rule, decodes the result with files.design_from_dict, the same decoder
that reads design files, and passes it through the gate files.require
before handing it out, so a transcription error cannot propagate
silently.  The report is computed once and kept beside the payload's
codes, so a construction that checks a catalog payload again gets it
for free; a payload emitted and read back is a new object, checked
from scratch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .designs import CYCLIC, REGULAR, FanDesign
from .files import SCHEMA_VERSION, block_count, design_from_dict, require


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str
    payload: object
    expected_base_count: int
    declared_action: dict


def _relabel_point(rule: dict, p):
    name = rule["name"]
    if name == "literal":
        return p
    if name == "split-rows":
        v = rule["v"]
        return [p // v, p % v]
    if name == "split-triple":
        g, h = rule["group_size"], rule["h"]
        return [p // g, (p % g) // h, p % h]
    if name == "mod-groups":
        n = rule["n"]
        return [p % n, p // n, 0]
    if name == "group-table":
        for gi, members in enumerate(rule["groups"]):
            if p in members:
                return [gi, members.index(p), 0]
        raise ValueError("element %r missing from group table" % (p,))
    raise ValueError("unknown relabel rule %r" % (name,))


def _relabel_blocks(rule: dict, blocks):
    return [[_relabel_point(rule, p) for p in b] for b in blocks]


def _expand_rows(blocks, u: int):
    """Close a block list under row rotation modulo u."""
    out = []
    for b in blocks:
        for d in range(u):
            out.append([[(r + d) % u, c] for r, c in b])
    return out


@lru_cache(maxsize=1)
def _raw() -> dict:
    text = resources.files("ooc2d").joinpath("data/catalog.json").read_text()
    data = json.loads(text)
    if data.get("format") != 1:
        raise ValueError("unsupported catalog format %r" % (data.get("format"),))
    return data["entries"]


def catalog_ids() -> list:
    return sorted(_raw())


def _build_payload(entry: dict):
    params = dict(entry["params"])
    source = entry["source"]
    rule = source["relabel"]
    doc = {"schema_version": SCHEMA_VERSION, "kind": entry["kind"], "parameters": params}
    if entry["kind"] == "fan":
        terminal = _relabel_blocks(rule, source["terminal"])
        layers = [_relabel_blocks(rule, lay) for lay in source["layers"]]
        expand = source.get("expand_rows")
        if expand:
            terminal = _expand_rows(terminal, expand)
            layers = [_expand_rows(lay, expand) for lay in layers]
        params["shape"] = CYCLIC if "g_list" in params else REGULAR
        doc.update(layers=layers, base_blocks=terminal)
    else:
        doc["base_blocks"] = _relabel_blocks(rule, source["blocks"])
    return design_from_dict(doc)


def _verify_payload(entry_id: str, payload, action: dict) -> None:
    if isinstance(payload, FanDesign) and action["form"] != payload.shape:
        raise ValueError("catalog %s: declared form %s, but the payload uses the %s shape"
                         % (entry_id, action["form"], payload.shape))
    require(payload, "catalog %s" % entry_id, strict=action.get("strict", False))


@lru_cache(maxsize=None)
def catalog_get(entry_id: str) -> CatalogEntry:
    entries = _raw()
    if entry_id not in entries:
        raise KeyError("no catalog entry %r, have: %s" % (entry_id, ", ".join(catalog_ids())))
    raw = entries[entry_id]
    try:
        payload = _build_payload(raw)
    except ValueError as exc:
        raise ValueError("catalog %s: %s" % (entry_id, exc)) from exc
    count = block_count(payload)
    if count != raw["expected_base_count"]:
        raise ValueError("catalog %s: %d base blocks, expected %d"
                         % (entry_id, count, raw["expected_base_count"]))
    _verify_payload(entry_id, payload, raw["action"])
    return CatalogEntry(
        id=entry_id,
        kind=raw["kind"],
        payload=payload,
        expected_base_count=raw["expected_base_count"],
        declared_action=dict(raw["action"]),
    )
