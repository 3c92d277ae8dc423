let with_enabled f = Sync_prims.Tier.with_tier `Fast f
