package crashtest

import "testing"

// TestMigrateCampaign drives the mid-migration campaign at the scenario's own
// sizing. Seed 1 is the campaign that lost acknowledged keys at round 44
// before migrate.WriteRecord's checksum covered the sequence word: a chain
// crash tore the journal-clearing publish down to its seq word, the stale
// copy-phase record under it came back as the newest, and the rollback arm
// wiped dst after the roll-forward arm had already purged src.
func TestMigrateCampaign(t *testing.T) {
	rep, err := runOne(Config{Scenario: "migrate", Rounds: 60, Seed: 1})
	if err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	if rep.Rounds != 60 {
		t.Fatalf("completed %d rounds, want 60", rep.Rounds)
	}
	if rep.count("copy") == 0 || rep.count("cleanup") == 0 {
		t.Fatalf("want crashes on both sides of the cutover, got %d copy / %d cleanup",
			rep.count("copy"), rep.count("cleanup"))
	}
	if rep.count("recovery_crash") == 0 {
		t.Fatal("no crash landed inside pending recovery work")
	}
	if rep.count("rolled_back")+rep.count("carried_forward") != uint64(rep.Rounds) {
		t.Fatalf("resolution counts %d+%d != rounds %d", rep.count("rolled_back"), rep.count("carried_forward"), rep.Rounds)
	}
	t.Logf("migrate: %+v", rep)
}
