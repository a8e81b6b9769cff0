module fastcolumns/benchmark

go 1.22

require fastcolumns v0.0.0

replace fastcolumns => ../
