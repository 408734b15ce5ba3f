import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs every property test on the same examples, so a red build is
# reproducible; local runs keep hypothesis' random default.
settings.register_profile("ci", derandomize=True, max_examples=100, deadline=None, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

from tgfd.graph import load_graph
from tgfd.model import parse_tgfd_file

# Medication fixture: one patient whose dosage goes wrong at t=6.
MEDICATION_SNAPSHOT = """\
v p1 patient name=Jack
v d1 disease name=Covid19
v m1 medication name=Veklury
v w1 dosage val=100mg
e p1 diagnosed d1
e p1 prescribed m1
e m1 dose w1
"""

MEDICATION_CHANGES = """\
t 2
t 3
t 4
t 5
t 6
+a w1 val=50mg
"""

MEDICATION_RULES = """\
tgfd dosage_rule
vertex x patient
vertex z disease
vertex y medication
vertex w dosage
edge x diagnosed z
edge x prescribed y
edge y dose w
delta (1, 4)
x: x.name == x.name; z.name = "Covid19"; y.name = "Veklury"
y: w.val = "100mg"
"""

# Conflicting value constraints on embedded patterns: the plain rule wants
# 100mg, the symptom-augmented rule wants 20mL over the same interval.
CONFLICT_RULES = """\
tgfd base_dosage
vertex x patient
vertex z disease
vertex y medication
vertex w dosage
edge x diagnosed z
edge x prescribed y
edge y dose w
delta (30, 120)
x: x.name == x.name; z.name = "Covid19"; y.name = "Veklury"
y: w.val = "100mg"

tgfd symptom_dosage
vertex x patient
vertex r symptom
vertex z disease
vertex y medication
vertex w dosage
edge x shows r
edge x diagnosed z
edge x prescribed y
edge y dose w
delta (30, 120)
x: x.name == x.name; r.name == r.name; z.name = "Covid19"; y.name = "Veklury"
y: w.val = "20mL"
"""

CONFLICT_RULES_DISJOINT = CONFLICT_RULES.replace(
    'delta (30, 120)\nx: x.name == x.name; r.name == r.name',
    'delta (20, 25)\nx: x.name == x.name; r.name == r.name'
)

# Two rules named r: the first pair-based, the second with a constant
# consequent.  Every engine keys its per-rule state by name.
DUPLICATE_RULES = """\
tgfd r
vertex x patient
vertex y medication
edge x prescribed y
delta (0, 4)
x: x.name == x.name
y: y.name == y.name

tgfd r
vertex p patient
delta (0, 1)
y: p.name = "y"
"""


@pytest.fixture
def medication_graph():
    return load_graph(MEDICATION_SNAPSHOT, MEDICATION_CHANGES)


@pytest.fixture
def medication_rules():
    return parse_tgfd_file(MEDICATION_RULES)


@pytest.fixture
def conflict_rules():
    return parse_tgfd_file(CONFLICT_RULES)


@pytest.fixture
def conflict_rules_disjoint():
    rules = parse_tgfd_file(CONFLICT_RULES_DISJOINT)
    assert rules[1].delta.p == 20  # the replace really hit the second rule
    return rules
