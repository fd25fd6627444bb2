"""Reference test vectors and the vector-file interface.

Vector files are plain CSV, one record per line:

    name,key_hex,pt_hex,ct_hex

with 32 lowercase hex characters per field.  The bundled file carries
the ten official EGC128 vectors covering boundary, structured and
pseudorandom inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .cipher import Cipher
from .params import Block, MasterKey

BUNDLED_VECTOR_FILE = "reference_vectors.csv"


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


def bundled_vector_path() -> Path:
    return Path(str(resources.files("egc128") / "data" / BUNDLED_VECTOR_FILE))


def load_vectors(path: str | Path | None = None) -> list[TestVector]:
    src = Path(path) if path is not None else bundled_vector_path()
    out = []
    with open(src, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            name, key_hex, pt_hex, ct_hex = (c.strip() for c in row)
            for field in (key_hex, pt_hex, ct_hex):
                if len(field) != 32 or field != field.lower():
                    raise ValueError(f"vector {name}: fields must be 32 lowercase hex chars")
            out.append(TestVector(name, key_hex, pt_hex, ct_hex))
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
