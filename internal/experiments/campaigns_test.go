package experiments

import (
	"strconv"
	"testing"
)

// TestCampaignsAcceptance runs the stealth-DoS campaign suite and pins
// the reported numbers. The experiment itself errors on the hard SLOs
// (goodput below a row's floor, any replay acceptance, a defense knob
// that fails to improve its campaign's bound); the assertions here keep
// the table honest — every campaign present, both rows per campaign,
// zero in every replay_accepts cell.
func TestCampaignsAcceptance(t *testing.T) {
	tbl, err := campaignTable("campaigns", CampaignsConfig{Seed: 1, Packets: 240}, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	col := make(map[string]int, len(tbl.Columns))
	for i, c := range tbl.Columns {
		col[c] = i
	}
	rowsPer := make(map[string]int)
	for _, row := range tbl.Rows {
		name := row[col["campaign"]]
		rowsPer[name]++
		if got := row[col["replay_accepts"]]; got != "0" {
			t.Errorf("campaign %s (%s): replay_accepts = %s, want 0",
				name, row[col["defense"]], got)
		}
		sent, err := strconv.Atoi(row[col["sent"]])
		if err != nil || sent <= 0 {
			t.Errorf("campaign %s: bad sent cell %q", name, row[col["sent"]])
		}
		delivered, err := strconv.Atoi(row[col["delivered"]])
		if err != nil || delivered <= 0 || delivered > sent {
			t.Errorf("campaign %s: delivered %q out of range (sent %d)",
				name, row[col["delivered"]], sent)
		}
	}
	for _, s := range campaignScenarios {
		if s.table == "campaigns" && rowsPer[s.name] != 2 {
			t.Errorf("campaign %s: %d rows, want 2 (baseline + hardened)", s.name, rowsPer[s.name])
		}
	}
}

// TestCampaignFilter checks the one filter behind resetsim's -campaign
// flag: a name from either table renders that table with only that
// scenario's rows, and an unknown name is an error.
func TestCampaignFilter(t *testing.T) {
	for _, tc := range []struct {
		name, table string
		rows        int
	}{
		{"window_edge", "campaigns", 2},
		{"enospc_compact", "diskfault", 1},
		{"no_such_campaign", "", 0},
	} {
		tbl, err := Campaign(CampaignsConfig{Seed: 1, Packets: 120}, tc.name)
		if tc.table == "" {
			if err == nil {
				t.Errorf("%s: unknown campaign accepted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tbl.ID != tc.table || len(tbl.Rows) != tc.rows {
			t.Fatalf("%s: table %s with %d rows, want %s with %d", tc.name, tbl.ID, len(tbl.Rows), tc.table, tc.rows)
		}
		for _, row := range tbl.Rows {
			if row[0] != tc.name {
				t.Errorf("%s: row campaign = %q", tc.name, row[0])
			}
		}
	}
}
