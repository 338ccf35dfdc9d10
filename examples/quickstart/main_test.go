package main

// The quick start's walk-through as its expected output: a reset that
// reuses a number, a replay that delivers, a leap that is not 2K or a
// sacrifice above it changes a line here.
func Example_main() {
	main()
	// Output:
	// sent and delivered 100 messages; receiver edge = 100
	// receiver reset: message 101 is down
	// receiver woke: edge leaped to 150 (was 100 before the crash)
	// adversary replayed 101 old messages: all rejected
	// fresh traffic resumed after 49 sacrificed messages (bound 2K = 50)
	// sender woke: resumed at 201, delivered — no sequence number is ever reused
	// process restarted: first number is 251, above every number used (last was 201)
	// adversary replayed 152 old messages at the restarted receiver: all rejected
}
