"""SparkML baseline (§7.1.1): the same trained-pipeline structure built
with pyspark.ml — StringIndexer + OneHotEncoder per categorical column,
StandardScaler over the numerics, and {LogisticRegression,
DecisionTreeClassifier, GBTClassifier}. Inference is ``model.transform``
over the joined DataFrame, exactly the paper's SparkML comparator.

Fitted models are kept in the artifact cache (:mod:`repro.cache`, with
pyspark.ml's native save/load) keyed by dataset + model settings, since
benchmarks re-time inference only.
"""
from __future__ import annotations

from pyspark.ml import Pipeline as MLPipeline
from pyspark.ml import PipelineModel
from pyspark.ml.classification import (
    DecisionTreeClassifier,
    GBTClassifier,
    LogisticRegression,
)
from pyspark.ml.feature import (
    OneHotEncoder,
    StandardScaler,
    StringIndexer,
    VectorAssembler,
)
from pyspark.sql import DataFrame, SparkSession

from repro.cache import cached
from repro.data.datasets import LABEL, DatasetSpec


def _stages(spec: DatasetSpec, kind: str, hp: dict):
    stages = []
    feature_cols = []
    if spec.num_cols:
        stages.append(VectorAssembler(inputCols=spec.num_cols, outputCol="num_vec"))
        stages.append(
            StandardScaler(inputCol="num_vec", outputCol="num_scaled",
                           withMean=True, withStd=True)
        )
        feature_cols.append("num_scaled")
    if spec.cat_cols:
        idx_cols = [f"{c}_idx" for c in spec.cat_cols]
        ohe_cols = [f"{c}_ohe" for c in spec.cat_cols]
        stages.append(
            StringIndexer(
                inputCols=spec.cat_cols, outputCols=idx_cols, handleInvalid="keep"
            )
        )
        stages.append(OneHotEncoder(inputCols=idx_cols, outputCols=ohe_cols))
        feature_cols += ohe_cols
    stages.append(VectorAssembler(inputCols=feature_cols, outputCol="features"))

    if kind == "lr":
        clf = LogisticRegression(
            featuresCol="features", labelCol=LABEL,
            elasticNetParam=1.0, regParam=hp.get("reg_param", 0.001),
        )
    elif kind == "dt":
        clf = DecisionTreeClassifier(
            featuresCol="features", labelCol=LABEL,
            maxDepth=hp.get("max_depth", 5), maxBins=8192,
        )
    elif kind == "gb":
        clf = GBTClassifier(
            featuresCol="features", labelCol=LABEL,
            maxIter=hp.get("n_estimators", 20),
            maxDepth=hp.get("max_depth", 3), maxBins=8192,
        )
    else:
        raise ValueError(f"sparkml baseline does not model kind {kind!r}")
    stages.append(clf)
    return stages


def train_sparkml(
    spark: SparkSession, spec: DatasetSpec, train_df: DataFrame, kind: str, **hp
) -> PipelineModel:
    """Fit (or load from cache) the pyspark.ml pipeline."""
    return cached(
        "sparkml", (spec.name, kind, sorted(hp.items())),
        lambda: MLPipeline(stages=_stages(spec, kind, hp)).fit(train_df),
        load=PipelineModel.load,
        save=lambda model, path: model.write().overwrite().save(path),
    )


def predict_sparkml(model: PipelineModel, df: DataFrame) -> DataFrame:
    return model.transform(df).select("prediction")
