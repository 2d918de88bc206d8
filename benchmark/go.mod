module cgraph/benchmark

go 1.24

require cgraph v0.0.0

replace cgraph => ../
