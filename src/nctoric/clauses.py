"""Statement labels cited in reports, one constant per checkable clause.

These strings are part of the report format: every failure names the clause
it violates so findings can be traced to the statement being verified.
"""

FAN_PRIMITIVE = "§2.2 (fan)"
FAN_SEPARATION = "§2.2 (fan)"
FAN_INDEX_ONE = "Assumption 2.2.2"
FAN_REFERENCE = "Assumption 2.2.2"

INVERSE_SYSTEM = "Def 2.2.1"
ADMISSIBLE_FINITE = "Def 2.2.4(0)"
ADMISSIBLE_SURJECTIVE = "Def 2.2.4(1)"
ADMISSIBLE_UNITS = "Def 2.2.4(2)"
BUILD_SYSTEM = "Thm 2.2.5"
AUGMENTATION = "Prop 2.2.10"
SOFTENING = "Def 2.2.14"

GLUING_UNIT = "Lemma 3.4(i)"
GLUING_PERP = "Lemma 3.4(ii)"
GLUING_COCYCLE = "Lemma 3.4(iii)"
GLUING_ISOM = "Lemma 3.4 (isomorphism)"
POLYTOPE = "§3 (polytope sections)"
SECTION_EXTEND = "Prop 3.8"
TWISTED_SECTION = "Def 3.6"
SUBSCHEME = "Def 3.9"

QUASI_HOM = "Def 4.2.1"
GLUE_SUBORDINATE = "Def 4.2.3(a)"
GLUE_CENTRALIZER = "Def 4.2.3(b)"
GLUE_COMPATIBLE = "Def 4.2.3(c)"
IDEM_STRONG = "Def 4.2.6"
MORPHISM_GLUING = "Def 4.2.9(i)"
MORPHISM_COMPLETE = "Def 4.2.9(ii)"
SURROGATE = "Def 4.2.12"
MORPHISM_IMAGE = "Def 4.2.13"
A1_PROBE = "Example 2.1.9"
MATRIX_MODEL = "Question 4.2.14"
