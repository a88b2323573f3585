module nonstrict/benchmark

go 1.24

require nonstrict v0.0.0

replace nonstrict => ../
