"""MeSH tree-number corpus selection.

A record is selected when at least one of its tree numbers matches an included
prefix, none matches an excluded prefix, and its publication year passes the
optional minimum. Prefix matching is component-wise on dot-separated segments;
a bare category letter matches every tree number in that category.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .errors import RulesetError

log = logging.getLogger(__name__)

_TREE_NUMBER_RE = re.compile(r"^[A-Z][0-9]*(?:\.[0-9]+)*$")

BUNDLED_RULESETS = {"sp": "sp.json", "fp": "fp.json"}


def is_valid_tree_number(tree_number: str) -> bool:
    return bool(_TREE_NUMBER_RE.match(tree_number))


def tree_matches(tree_number: str, prefix: str) -> bool:
    """True iff prefix is an ancestor-or-equal of tree_number in the MeSH tree."""
    if len(prefix) == 1:
        return tree_number[0] == prefix
    return tree_number == prefix or tree_number.startswith(prefix + ".")


@dataclass
class ArticleRecord:
    article_id: str
    tree_numbers: list[str]
    year: "int | None" = None
    text: str = ""


@dataclass
class MeshRuleset:
    name: str
    included_prefixes: list[str]
    excluded_prefixes: list[str]
    min_year: "int | None" = None
    notes: str = ""

    def __post_init__(self):
        for prefix in self.included_prefixes + self.excluded_prefixes:
            if not is_valid_tree_number(prefix):
                raise RulesetError(f"ruleset {self.name!r}: invalid tree-number prefix {prefix!r}")
        overlap = set(self.included_prefixes) & set(self.excluded_prefixes)
        if overlap:
            raise RulesetError(
                f"invalid ruleset {self.name!r}: prefixes in both lists: {sorted(overlap)}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "MeshRuleset":
        try:
            name, included, excluded = data["name"], data["included_prefixes"], data["excluded_prefixes"]
        except KeyError as exc:
            raise RulesetError(f"ruleset is missing key {exc}") from exc
        for key, value in (("included_prefixes", included), ("excluded_prefixes", excluded)):
            if not isinstance(value, list) or not all(isinstance(p, str) for p in value):
                raise RulesetError(f"ruleset {name!r}: {key} must be a list of strings, got {value!r}")
        min_year = data.get("min_year")
        if min_year is not None and (isinstance(min_year, bool) or not isinstance(min_year, int)):
            raise RulesetError(f"ruleset {name!r}: min_year must be an integer or null, got {min_year!r}")
        return cls(name, list(included), list(excluded), min_year, data.get("notes", ""))

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "included_prefixes": self.included_prefixes,
            "excluded_prefixes": self.excluded_prefixes,
            "min_year": self.min_year,
        }
        if self.notes:
            out["notes"] = self.notes
        return out


def load_ruleset(source: "str | Path") -> MeshRuleset:
    """Load a ruleset from a JSON file path or a bundled name ("sP", "fP")."""
    name = str(source)
    path = Path(source)
    if path.is_file():
        try:
            raw = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise RulesetError(f"ruleset {source}: invalid UTF-8 ({exc.reason})") from exc
    elif name.lower() in BUNDLED_RULESETS:
        raw = (
            resources.files("bpt")
            .joinpath("rulesets", BUNDLED_RULESETS[name.lower()])
            .read_text(encoding="utf-8")
        )
    else:
        raise FileNotFoundError(f"ruleset not found: {source}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RulesetError(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise RulesetError(f"ruleset {source}: must be a JSON object, got {type(data).__name__}")
    return MeshRuleset.from_dict(data)


@dataclass
class FilterReport:
    total: int = 0
    included: int = 0
    excluded_by_rule: int = 0
    excluded_by_year: int = 0
    no_match: int = 0
    skipped: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def classify_record(record: ArticleRecord, ruleset: MeshRuleset) -> str:
    """One of "included", "excluded_by_rule", "excluded_by_year", "no_match".

    Precedence: a record without any included-prefix match is "no_match" even
    if an excluded prefix also matches; the exclusion and year gates apply
    only to records that qualified for inclusion.
    """
    if not any(
        tree_matches(t, p) for p in ruleset.included_prefixes for t in record.tree_numbers
    ):
        return "no_match"
    if any(tree_matches(t, p) for p in ruleset.excluded_prefixes for t in record.tree_numbers):
        return "excluded_by_rule"
    if ruleset.min_year is not None and (record.year is None or record.year < ruleset.min_year):
        return "excluded_by_year"
    return "included"


def select_articles(
    records: Iterable[ArticleRecord], ruleset: MeshRuleset
) -> tuple[Iterator[ArticleRecord], FilterReport]:
    """Order-preserving stream filter; the report is complete once the
    returned iterator is exhausted."""
    report = FilterReport()

    def generate():
        for record in records:
            report.total += 1
            bad = [t for t in record.tree_numbers if not is_valid_tree_number(t)]
            if bad:
                report.skipped += 1
                log.warning(
                    "skipping article %s: malformed tree numbers %s", record.article_id, bad
                )
                continue
            outcome = classify_record(record, ruleset)
            setattr(report, outcome, getattr(report, outcome) + 1)
            if outcome == "included":
                yield record

    return generate(), report


def parse_records_jsonl(lines: Iterable[str]) -> Iterator[ArticleRecord]:
    """JSON Lines input: one object per line with keys article_id,
    tree_numbers (a list of strings), year (an int or null) and text (a
    string); a missing key takes its ArticleRecord default."""
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RulesetError(f"line {i + 1}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise RulesetError(f"line {i + 1}: a record must be a JSON object, got {type(data).__name__}")
        tree_numbers = data.get("tree_numbers", [])
        year = data.get("year")
        text = data.get("text", "")
        if not isinstance(tree_numbers, list) or not all(isinstance(t, str) for t in tree_numbers):
            raise RulesetError(f"line {i + 1}: tree_numbers must be a list of strings, got {tree_numbers!r}")
        if year is not None and (isinstance(year, bool) or not isinstance(year, int)):
            raise RulesetError(f"line {i + 1}: year must be an integer or null, got {year!r}")
        if not isinstance(text, str):
            raise RulesetError(f"line {i + 1}: text must be a string, got {type(text).__name__}")
        yield ArticleRecord(
            article_id=str(data.get("article_id", f"line{i + 1}")),
            tree_numbers=tree_numbers,
            year=year,
            text=text,
        )
