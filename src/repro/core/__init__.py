"""eFactory: the paper's primary contribution.

Client-active PUT with asynchronous durability, background verification
and persisting, hybrid reads, two-stage log cleaning, and multi-version
recovery.
"""

from repro.core.background import BackgroundVerifier
from repro.core.client import EFactoryClient, EFactoryNoHrClient
from repro.core.config import EFactoryConfig
from repro.core.log_cleaning import CleaningStats, LogCleaner
from repro.core.recovery import (
    RecoveryReport,
    recover_bucketized,
    recover_erda,
    scan_pool,
)
from repro.core.server import EFactoryServer

__all__ = [
    "BackgroundVerifier",
    "CleaningStats",
    "EFactoryClient",
    "EFactoryConfig",
    "EFactoryNoHrClient",
    "EFactoryServer",
    "LogCleaner",
    "RecoveryReport",
    "recover_bucketized",
    "recover_erda",
    "scan_pool",
]
