"""docs/DURABILITY.md's record-type lists name exactly the WAL record
types and the mutation types :func:`apply_record` accepts: the
documented log format cannot drift from the replay code."""

import re
from pathlib import Path

import pytest

from vidb.durability.records import (
    COMMIT,
    MUTATION_TYPES,
    RECORD_TYPES,
    apply_record,
)
from vidb.durability.wal import WalRecord
from vidb.errors import RecoveryError
from vidb.storage.database import VideoDatabase

DOC = Path(__file__).resolve().parents[3] / "docs" / "DURABILITY.md"


def documented_types():
    """``(record types, mutation types)``: the bulleted names of the
    two lists in the write-ahead-log section."""
    text = DOC.read_text(encoding="utf-8")
    section = re.split(r"The\s+record\s+types\s+are", text, maxsplit=1)[1]
    section = re.split(r"Any\s+other\s+record\s+type", section, maxsplit=1)[0]
    records, mutations = re.split(r"the\s+mutation\s+types", section,
                                  maxsplit=1)
    bullet = re.compile(r"^- `([a-z_]+)` — ", re.MULTILINE)
    return bullet.findall(records), bullet.findall(mutations)


def test_record_types_match_the_docs():
    records, mutations = documented_types()
    assert records == list(RECORD_TYPES)
    assert mutations == list(MUTATION_TYPES)


@pytest.mark.parametrize("kind", documented_types()[0])
def test_documented_record_types_apply(kind):
    assert apply_record(VideoDatabase("r"), WalRecord(1, kind)) == 0


@pytest.mark.parametrize("kind", documented_types()[1])
def test_documented_mutation_types_are_known(kind):
    record = WalRecord(1, COMMIT, {"mutations": [[kind, {}]]})
    with pytest.raises(RecoveryError) as error:  # {} is no valid payload
        apply_record(VideoDatabase("r"), record)
    assert "unknown mutation type" not in str(error.value)
