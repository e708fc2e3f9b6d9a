module graphspar/cmd/bench

go 1.24

require graphspar v0.0.0

replace graphspar => ../..
