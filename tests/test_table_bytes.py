"""Byte contract of character tables: the sha256 of the JSON (and, for two
tables, the text) that `charseries --table` prints, and of a library table
serialized the way the CLI serializes it.  The JSON hashes were taken
before the tables were computed from weight buckets, and the text ones
before their rows and values were interned, so any change of a
coefficient, of its canonical form or of the serialization shows here.  The same holds
for the text and JSON that `sklyanin2 onedim` prints, pinned while every
candidate tuple was still checked on its own."""

import hashlib
import json

import pytest

from algtool.cli import main, to_jsonable
from algtool.cyclotomic import Cyclotomic
from algtool.gradedalg import character_table, make_presentation
from algtool.heisenberg import SimpleRep

UNCAPPED = ("--max-cells", str(10 ** 12))

TABLES = {
    "cycle5-5": (("--algebra", "cycle", "--p", "5", "--max-degree", "5"),
                 "99eab5e1b7027490de5c6adbcac998bd1ebb8dfebd880dc34e8ecd141c6db297"),
    "curveCa4-5": (("--algebra", "curveCa", "--params", "4", "--max-degree", "5"),
                   "5b3690b757428e4dfb689573dfe2b734dc8c0eece5ac90516a9f78f16f7b5e61"),
    "sklyanin3-7": (("--algebra", "sklyanin3", "--params", "1,1,-3", "--max-degree", "7"),
                    "f9c396cb4bcb52587ee037c317d22cda9fa995c34c383ca08332f11291a9ae6d"),
    "cliffordC7-7": (("--algebra", "cliffordC", "--p", "7", "--params", "1,2,3,4",
                      "--max-degree", "7"),
                     "e62340d5d6c1a59c8794e18638c3073fadddde664a84ffc550498a8f9aff9860"),
    "sklyanin5-rep3-5": (("--algebra", "sklyanin5", "--params", "1/2,3/7", "--rep", "3",
                          "--max-degree", "5"),
                         "7e9be36546015a66819dedf21c95527eb6d69013309445378446d22c2c9690d5"),
    "resource-error": (("--algebra", "cycle", "--p", "5", "--max-degree", "5",
                        "--max-cells", "500"),
                       "c21f871f96ce51fc8d263d27ad631f354767227827111ab8d248a2f144aa888f"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", TABLES)
def test_table_stdout_bytes(capsys, name):
    argv, digest = TABLES[name]
    if "--max-cells" not in argv:
        argv += UNCAPPED
    code = main(["charseries", *argv, "--table", "--format", "json"])
    assert code == (1 if name == "resource-error" else 0)
    assert sha256(capsys.readouterr().out) == digest


# sha256 of the text stdout of two tables of TABLES: the text output runs
# json.dumps on each value of to_jsonable's form, shared objects included
TEXT_TABLES = {
    "cycle5-5": "7427b9dd4282b66360609aced9563cf5f46dc6419c1dbaac87a819bafa547b86",
    "sklyanin3-7": "442ded2f6fc800480e6a809ff36db7369bdd231ecdff29eafffb0655acd2d107",
}


@pytest.mark.parametrize("name", TEXT_TABLES)
def test_table_text_stdout_bytes(capsys, name):
    argv = TABLES[name][0] + UNCAPPED
    assert main(["charseries", *argv, "--table", "--format", "text"]) == 0
    assert sha256(capsys.readouterr().out) == TEXT_TABLES[name]


# the character table of curveCa(1 + 3w) over Q(w_5) to degree 5
QW_TABLE = ("curveCa", Cyclotomic(5, (1, 3)))
QW_TABLE_DIGEST = "05b08cb284a382c82c1a1fedb3dd9696f626790aca2b225e17aa27973528af0e"


def table_digest(table) -> str:
    """sha256 of a library table serialized as the CLI serializes it."""
    return sha256(json.dumps(to_jsonable(table.to_json()), sort_keys=True, indent=2))


def test_library_table_bytes_over_qw():
    pres = make_presentation(*QW_TABLE)
    assert table_digest(character_table(pres, SimpleRep(5, 1), 5)) == QW_TABLE_DIGEST


# (p, --params): sha256 of the text stdout, then of the JSON stdout
ONEDIM = {
    "p5-122": ((5, "1,2,2"),
               "77e5c92b8e62c1387bb29a00d3f0c0cd1c55e9a447e1c8cdbcfa5ee580e24829",
               "8b90dac1ff6b13232dd48d44e42ea21479630f3244da71182cd7a9db1db328f8"),
    "p3-12": ((3, "1,2"),
              "cb95fd882465cf4065d9b542494f4de3ce8a2b767478c3cca31fafa50dc50906",
              "29bfc93c93d5f82c2b7b27f59f4e7b523e13484b5b990854fc8e118bf4f9228b"),
    "p13-122": ((13, "1,2,2,2,2,2,2"),
                "53270a0b2a4994229a20cdb57ebabaf46ec709ae084cec8c9040f8d2cb6c8cb3",
                "3386d7ad6db5baae4870c91e106a42456ee449ddc575619086e1e5a132a5bfa3"),
    "p5-empty": ((5, "1,1,1"),
                 "874121ce493a123933420328e7625172dc94f5857c15a04803982ce482ac5111",
                 "11456746c82ee6bba82202046a1c7907ab6e600e55131bd7ebc50ee8038389ca"),
    "p11-fractions": ((11, "1,1/2,3,0,2,5"),
                      "874121ce493a123933420328e7625172dc94f5857c15a04803982ce482ac5111",
                      "11456746c82ee6bba82202046a1c7907ab6e600e55131bd7ebc50ee8038389ca"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ONEDIM)
def test_onedim_stdout_bytes(capsys, name, fmt):
    (p, params), text_digest, json_digest = ONEDIM[name]
    code = main(["sklyanin2", "onedim", "--p", str(p), "--params", params, "--format", fmt])
    assert code == 0
    assert sha256(capsys.readouterr().out) == (text_digest if fmt == "text" else json_digest)
