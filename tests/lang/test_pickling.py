"""Terms, atoms, rules and queries pickle across processes.

Each of these classes caches its hash, and Python salts ``str`` hashes
per process.  A pickle written under one hash seed must therefore load,
under another, into objects equal to freshly built ones -- with the
same hash and found in the same sets -- as happens when ``api/pool.py``
ships an ontology to its spawned workers.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.lang.atoms import Atom, Position
from repro.lang.substitution import Substitution
from repro.lang.terms import Constant, Null, Variable

REPO_ROOT = Path(__file__).resolve().parents[2]

# Builds the same objects in any process; Substitution hashes lazily,
# so it is hashed before pickling.
BUILD = """
from repro.lang.atoms import Atom, Position
from repro.lang.parser import parse_query
from repro.lang.queries import UnionOfConjunctiveQueries
from repro.lang.substitution import Substitution
from repro.lang.terms import Constant, Null, Variable
from repro.workloads import university_ontology

def build():
    x = Variable("X")
    substitution = Substitution({x: Constant("a")})
    hash(substitution)
    cq = parse_query("q(X) :- teaches(X, C), memberOf(X, D)")
    other = parse_query("q(X) :- employee(X)")
    objects = {
        "variable": x,
        "constant": Constant("a"),
        "null": Null("n1"),
        "atom": Atom("r", [x, Constant("a"), Null("n1")]),
        "position": Position("r", 1),
        "substitution": substitution,
        "cq": cq,
        "ucq": UnionOfConjunctiveQueries([cq, other]),
    }
    for i, rule in enumerate(university_ontology()):
        objects[f"rule{i}"] = rule
    return objects
"""

DUMP = BUILD + """
import pickle, sys
sys.stdout.buffer.write(pickle.dumps(build()))
"""

CHECK = BUILD + """
import json, pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = build()
broken = [
    name
    for name, obj in fresh.items()
    if not (
        loaded[name] == obj
        and hash(loaded[name]) == hash(obj)
        and loaded[name] in {obj}
    )
]
print(json.dumps({"checked": len(fresh), "broken": broken}))
"""


def _python(script: str, hash_seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        capture_output=True,
        env=env,
        check=True,
    )
    return result.stdout


def test_pickles_load_equal_under_another_hash_seed():
    blob = _python(DUMP, "1")
    report = json.loads(_python(CHECK, "2", stdin=blob))
    assert report["checked"] > 8
    assert report["broken"] == []


def test_reduce_rebuilds_through_the_constructor():
    x = Variable("X")
    assert x.__reduce__() == (Variable, ("X",))
    assert Constant(3).__reduce__() == (Constant, (3,))
    assert Null("n1").__reduce__() == (Null, ("n1",))
    atom = Atom("r", [x])
    assert atom.__reduce__() == (Atom, ("r", (x,), None))
    assert Position("r", 2).__reduce__() == (Position, ("r", 2))
    substitution = Substitution({x: Constant("a")})
    assert pickle.loads(pickle.dumps(substitution)) == substitution
