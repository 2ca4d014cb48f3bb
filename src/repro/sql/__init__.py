"""Relational engine substrate: the "Spark SQL" layer of the reproduction.

This package implements the pieces of Spark SQL that Structured Streaming
(the paper's contribution, in :mod:`repro.streaming`) is built on:

* a type system and schemas (:mod:`repro.sql.types`),
* row and columnar batch representations (:mod:`repro.sql.row`,
  :mod:`repro.sql.batch`),
* an expression AST with one vectorized evaluator standing in for
  Tungsten execution and a row-at-a-time reference the tests compare it
  against (:mod:`repro.sql.expressions`),
* logical plans, an analyzer and a Catalyst-style rule optimizer
  (:mod:`repro.sql.logical`, :mod:`repro.sql.analysis`,
  :mod:`repro.sql.optimizer`),
* whole-plan compilation into fused stages over the physical kernels
  (:mod:`repro.sql.plancompiler`, :mod:`repro.sql.physical`),
* the user-facing DataFrame API and session entry point
  (:mod:`repro.sql.dataframe`, :mod:`repro.sql.session`), and
* a small SQL SELECT parser (:mod:`repro.sql.parser`).
"""

from repro.sql.types import (
    BooleanType,
    DataType,
    DoubleType,
    IntegerType,
    LongType,
    StringType,
    StructField,
    StructType,
    TimestampType,
)
from repro.sql.batch import RecordBatch
from repro.sql.dataframe import Column, DataFrame
from repro.sql import functions
from repro.sql.session import Session

__all__ = [
    "BooleanType",
    "Column",
    "DataFrame",
    "DataType",
    "DoubleType",
    "IntegerType",
    "LongType",
    "RecordBatch",
    "Session",
    "StringType",
    "StructField",
    "StructType",
    "TimestampType",
    "functions",
]
