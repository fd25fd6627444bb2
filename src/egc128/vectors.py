"""Reference test vectors and the vector-file interface.

Vector files are plain CSV, one record per line:

    name,key_hex,pt_hex,ct_hex

with 32 lowercase hex characters per field.  The bundled file carries
the ten official EGC128 vectors covering boundary, structured and
pseudorandom inputs.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .cipher import Cipher
from .params import Block, MasterKey

_HEX32 = re.compile(r"[0-9a-f]{32}")


@dataclass(frozen=True)
class TestVector:
    name: str
    key_hex: str
    pt_hex: str
    ct_hex: str


@dataclass(frozen=True)
class VectorResult:
    name: str
    encrypt_ok: bool
    decrypt_ok: bool
    got_ct: str

    @property
    def ok(self) -> bool:
        return self.encrypt_ok and self.decrypt_ok


def load_vectors(path: str | Path | None = None) -> list[TestVector]:
    """The vectors of the CSV file at `path`, or of the bundled file when None."""
    if path is None:
        path = resources.files("egc128") / "data" / "reference_vectors.csv"
    src = Path(str(path))
    out = []
    with open(src, newline="") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row or row[0].startswith("#"):
                continue
            where = f"{src}, line {rows.line_num}"
            if len(row) != 4:
                raise ValueError(f"{where}: {len(row)} fields, expected 4 "
                                 "(name,key_hex,pt_hex,ct_hex)")
            name, *fields = (c.strip() for c in row)
            if not all(_HEX32.fullmatch(f) for f in fields):
                raise ValueError(f"{where}: vector {name}: key, plaintext and ciphertext "
                                 "must be 32 lowercase hex digits each")
            out.append(TestVector(name, *fields))
    if not out:
        raise ValueError(f"{src}: no test vectors")
    return out


def verify_vectors(path: str | Path | None = None) -> list[VectorResult]:
    """Encrypt and decrypt every vector in the file; both must be exact."""
    cipher = Cipher()
    results = []
    for tv in load_vectors(path):
        key = MasterKey.from_hex(tv.key_hex)
        pt = Block.from_hex(tv.pt_hex)
        ct = Block.from_hex(tv.ct_hex)
        got = cipher.encrypt_block(key, pt)
        back = cipher.decrypt_block(key, ct)
        results.append(VectorResult(tv.name, got == ct, back == pt, got.hex()))
    return results
