"""Winter wheat yield prediction from soil tests and weekly weather.

Library layout:
    domain    record types, ordinal encodings, range validation
    ingest    CSV parsing, cleaning, rejection logging, carry-forward
    features  weekly aggregation and design-matrix assembly
    learners  regression model suite (trees, forests, boosters, SVR)
    evalstat  temporal split, MAE, z-score panel, paired t-test
    synthgen  calibrated synthetic dataset generator
    config    declarative run configuration
    cli       command-line pipeline (synth | ingest | features | evaluate)
"""

__version__ = "0.1.0"
