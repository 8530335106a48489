from glue_etl_pipeline_ray.stages.validate import ValidateFn
from glue_etl_pipeline_ray.stages.evolve import make_evolve_fn
from glue_etl_pipeline_ray.stages.partial import make_partial_lww

__all__ = ["ValidateFn", "make_evolve_fn", "make_partial_lww"]
