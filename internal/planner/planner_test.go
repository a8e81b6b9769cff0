package planner

import (
	"testing"

	"fastcolumns/internal/scan"
)

func est(m map[string]float64) Estimator {
	return func(f Filter) float64 {
		if s, ok := m[f.Attr]; ok {
			return s
		}
		return 1
	}
}

func TestOrderPicksMostSelectiveDriver(t *testing.T) {
	filters := []Filter{
		{Attr: "a", Pred: scan.Predicate{Lo: 0, Hi: 10}},
		{Attr: "b", Pred: scan.Predicate{Lo: 5, Hi: 5}},
		{Attr: "c", Pred: scan.Predicate{Lo: 0, Hi: 100}},
	}
	p, err := Order(filters, est(map[string]float64{"a": 0.3, "b": 0.001, "c": 0.8}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Driver.Attr != "b" {
		t.Fatalf("driver = %s, want b", p.Driver.Attr)
	}
	if p.DriverSelectivity != 0.001 {
		t.Fatalf("driver selectivity = %v", p.DriverSelectivity)
	}
	if len(p.Residuals) != 2 || p.Residuals[0].Attr != "a" || p.Residuals[1].Attr != "c" {
		t.Fatalf("residual order = %v", p.Residuals)
	}
}

func TestOrderStableOnTies(t *testing.T) {
	filters := []Filter{{Attr: "x"}, {Attr: "y"}}
	p, err := Order(filters, est(map[string]float64{"x": 0.5, "y": 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Driver.Attr != "x" {
		t.Fatalf("tie should keep input order, driver = %s", p.Driver.Attr)
	}
}

func TestOrderUnknownAttributesNeverDrive(t *testing.T) {
	filters := []Filter{
		{Attr: "nostats"},
		{Attr: "known"},
	}
	p, err := Order(filters, est(map[string]float64{"known": 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Driver.Attr != "known" {
		t.Fatalf("stat-less filter drove the plan: %s", p.Driver.Attr)
	}
}

func TestOrderEmpty(t *testing.T) {
	if _, err := Order(nil, est(nil)); err == nil {
		t.Fatal("empty conjunction accepted")
	}
}

func TestOrderClampsEstimates(t *testing.T) {
	p, err := Order([]Filter{{Attr: "a"}}, est(map[string]float64{"a": -3}))
	if err != nil {
		t.Fatal(err)
	}
	if p.DriverSelectivity != 0 {
		t.Fatalf("negative estimate not clamped: %v", p.DriverSelectivity)
	}
}
