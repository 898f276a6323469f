"""The paper's worked examples as data, plus seeded generators."""

from .animals import (
    ANIMAL_TEXT,
    REPAIRED_ANIMAL_TEXT,
    VEHICLE_TO_ANIMAL_NAMES,
    VEHICLE_TO_ANIMAL_ROLES,
    animal_tbox,
    repaired_animal_tbox,
)
from .campus import (
    campus_properties,
    campus_rigidity,
    campus_space,
)
from .generators import (
    branching_tbox,
    chain_tbox,
    nonhorn_tbox,
    random_field,
    random_individuals,
    random_lexicalization,
    random_tbox,
    random_triples,
)
from .lexical import (
    AGE_FIELD,
    DOOR_FIELD,
    age_lexicalizations,
    english_door,
    french_age,
    italian_age,
    italian_door,
    spanish_age,
)
from .trespass import (
    AS_NEWSPAPER_HEADLINE,
    QUOTED_IN_A_NOVEL,
    IN_SIGN_SHOP,
    ON_BUILDING_DOOR,
    PROPERTYLESS_READER,
    TRESPASS_TEXT,
    WESTERN_ADULT,
    all_scenarios,
    trespass_interpreter,
)
from .vehicles import (
    ABSTRACT_NAMES,
    ABSTRACT_ROLES,
    VEHICLE_TEXT,
    abstract_tbox,
    vehicle_tbox,
)

__all__ = [
    "vehicle_tbox", "abstract_tbox", "VEHICLE_TEXT", "ABSTRACT_NAMES",
    "ABSTRACT_ROLES",
    "animal_tbox", "repaired_animal_tbox", "ANIMAL_TEXT",
    "REPAIRED_ANIMAL_TEXT", "VEHICLE_TO_ANIMAL_NAMES", "VEHICLE_TO_ANIMAL_ROLES",
    "DOOR_FIELD", "AGE_FIELD", "english_door", "italian_door",
    "italian_age", "spanish_age", "french_age", "age_lexicalizations",
    "TRESPASS_TEXT", "ON_BUILDING_DOOR", "IN_SIGN_SHOP",
    "AS_NEWSPAPER_HEADLINE", "QUOTED_IN_A_NOVEL", "WESTERN_ADULT",
    "PROPERTYLESS_READER",
    "trespass_interpreter", "all_scenarios",
    "campus_space", "campus_properties", "campus_rigidity",
    "random_tbox", "nonhorn_tbox", "random_field", "random_lexicalization",
    "random_triples", "random_individuals", "chain_tbox", "branching_tbox",
]
