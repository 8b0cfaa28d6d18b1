"""Privacy risk auditing for healthcare-app privacy policies.

Pipeline: fetch policy pages, extract plain text, detect regulation mentions
and privacy principles, compute SMOG readability, score five risk elements,
and emit per-app and corpus-level reports. A bundled 28-app reference audit
serves as the regression baseline (see `praf verify`).
"""

__version__ = "0.1.0"
