module iotsan/benchmark

go 1.24

require iotsan v0.0.0

replace iotsan => ../
