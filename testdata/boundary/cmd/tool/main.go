package main

import "fixture/internal/strategy"

func main() { strategy.ForName("vm") }
