package main

// Example pins what the quickstart prints: the three violations of
// Alice's home at 2 events, each with its Fig. 7 trail. The output below
// was written once from main's output at the commit before the root
// package's Fig. 7 benchmark was deleted. A change that moves it updates
// it and lists old → new, with the cause, in CHANGES.md.
func Example() {
	main()
	// Output:
	// explored 2 related group(s); 3 violation(s)
	//
	// violated: lock.main-door-when-away (The main door should be locked when no one is at home)
	//   1  [Alice's Presence.presence = not present]
	//      Alice's Presence.presence = not present
	//      Auto Mode Change.presenceHandler(evt: presence/not present)
	//      location.mode = Away
	//      Unlock Door.changedLocationMode(evt: mode/Away)
	//      Unlock Door sends Door Lock.unlock()
	//      Door Lock.lock = unlocked
	//
	// violated: lock.all-locked-when-away (Every lock should be locked when the location mode is Away)
	//   1  [Alice's Presence.presence = not present]
	//      Alice's Presence.presence = not present
	//      Auto Mode Change.presenceHandler(evt: presence/not present)
	//      location.mode = Away
	//      Unlock Door.changedLocationMode(evt: mode/Away)
	//      Unlock Door sends Door Lock.unlock()
	//      Door Lock.lock = unlocked
	//
	// violated: mode.away-when-no-one-home (Location mode should be changed to Away when no one is at home)
	//   1  [Alice's Presence.presence = not present]
	//      Alice's Presence.presence = not present
}
